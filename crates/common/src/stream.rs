//! Pull-based row streams: the pipelined execution model shared by both
//! engines.
//!
//! A [`RowStream`] is a lazy, fallible iterator over [`RowRef`]s.  Operators
//! implement it by pulling from their input stream on demand, so *demand*
//! propagates down the operator tree: when a consumer stops pulling (a
//! `LIMIT` is satisfied, an error aborts the query), every upstream operator
//! — including the base-table scan — stops producing.  This is what turns
//! the limit hint of the batch executors into genuine early termination: a
//! `LIMIT 10` under a filter reads base rows only until ten survivors have
//! been found, instead of scanning and buffering the whole table.
//!
//! The trait is deliberately tiny (`next()` only).  This module also
//! carries the generic adapters, a combinator set for library consumers
//! (the engine's operators implement `RowStream` directly because each
//! carries its own metrics counters, and the bounded executor's fetch step
//! is a plain loop over its buckets):
//!
//! * [`VecStream`] — a stream over already-materialized rows (the boundary
//!   between a blocking operator, e.g. sort or aggregation, and the pipeline
//!   downstream of it);
//! * [`FilterStream`] — retain rows satisfying a fallible predicate,
//!   propagating evaluation errors (SQL type errors must surface, not drop
//!   rows);
//! * [`MapStream`] — transform each row through a fallible function
//!   (projection);
//! * [`DedupeStream`] — incremental duplicate elimination preserving
//!   first-occurrence order (set semantics, hashing the `RowRef`s
//!   themselves, so nothing is cloned);
//! * [`TakeStream`] — yield at most `k` rows, then stop pulling.
//!
//! Engine-specific operators (scans with metrics, joins, top-k sorts)
//! implement [`RowStream`] directly in their own crates.

use crate::error::Result;
use crate::rowref::RowRef;
use std::collections::HashSet;

/// A lazy, fallible stream of [`RowRef`]s — the pipelined operator
/// interface.
///
/// `next()` returns `Ok(Some(row))` while rows remain, `Ok(None)` at
/// exhaustion, and `Err(_)` when producing the next row fails (the error
/// aborts the pipeline; a stream need not be pollable after an error).
pub trait RowStream<'a> {
    /// Pull the next row.
    fn next(&mut self) -> Result<Option<RowRef<'a>>>;

    /// Drain the stream into a vector (the materialization boundary).
    fn collect_rows(&mut self) -> Result<Vec<RowRef<'a>>>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(row) = self.next()? {
            out.push(row);
        }
        Ok(out)
    }
}

impl<'a, S: RowStream<'a> + ?Sized> RowStream<'a> for Box<S> {
    fn next(&mut self) -> Result<Option<RowRef<'a>>> {
        (**self).next()
    }
}

/// A stream over rows that are already materialized.
#[derive(Debug)]
pub struct VecStream<'a> {
    iter: std::vec::IntoIter<RowRef<'a>>,
}

impl<'a> VecStream<'a> {
    /// Stream the rows of `rows` in order.
    pub fn new(rows: Vec<RowRef<'a>>) -> Self {
        VecStream {
            iter: rows.into_iter(),
        }
    }
}

impl<'a> RowStream<'a> for VecStream<'a> {
    fn next(&mut self) -> Result<Option<RowRef<'a>>> {
        Ok(self.iter.next())
    }
}

/// Retain the rows for which `pred` returns `Ok(true)`; errors propagate.
pub struct FilterStream<'a, S, F>
where
    S: RowStream<'a>,
    F: FnMut(&RowRef<'a>) -> Result<bool>,
{
    input: S,
    pred: F,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a, S, F> FilterStream<'a, S, F>
where
    S: RowStream<'a>,
    F: FnMut(&RowRef<'a>) -> Result<bool>,
{
    /// Filter `input` through `pred`.
    pub fn new(input: S, pred: F) -> Self {
        FilterStream {
            input,
            pred,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<'a, S, F> RowStream<'a> for FilterStream<'a, S, F>
where
    S: RowStream<'a>,
    F: FnMut(&RowRef<'a>) -> Result<bool>,
{
    fn next(&mut self) -> Result<Option<RowRef<'a>>> {
        while let Some(row) = self.input.next()? {
            if (self.pred)(&row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Transform every row through a fallible function.
pub struct MapStream<'a, S, F>
where
    S: RowStream<'a>,
    F: FnMut(RowRef<'a>) -> Result<RowRef<'a>>,
{
    input: S,
    f: F,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a, S, F> MapStream<'a, S, F>
where
    S: RowStream<'a>,
    F: FnMut(RowRef<'a>) -> Result<RowRef<'a>>,
{
    /// Map `input` through `f`.
    pub fn new(input: S, f: F) -> Self {
        MapStream {
            input,
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<'a, S, F> RowStream<'a> for MapStream<'a, S, F>
where
    S: RowStream<'a>,
    F: FnMut(RowRef<'a>) -> Result<RowRef<'a>>,
{
    fn next(&mut self) -> Result<Option<RowRef<'a>>> {
        match self.input.next()? {
            Some(row) => Ok(Some((self.f)(row)?)),
            None => Ok(None),
        }
    }
}

/// Incremental duplicate elimination preserving first-occurrence order.
///
/// Hashing the [`RowRef`]s keeps duplicate elimination clone-free: a
/// retained row's segment list moves into the `seen` set and a cheap clone
/// (pointer copies) is emitted downstream.
pub struct DedupeStream<'a, S: RowStream<'a>> {
    input: S,
    seen: HashSet<RowRef<'a>>,
}

impl<'a, S: RowStream<'a>> DedupeStream<'a, S> {
    /// Deduplicate `input`.
    pub fn new(input: S) -> Self {
        DedupeStream {
            input,
            seen: HashSet::new(),
        }
    }
}

impl<'a, S: RowStream<'a>> RowStream<'a> for DedupeStream<'a, S> {
    fn next(&mut self) -> Result<Option<RowRef<'a>>> {
        while let Some(row) = self.input.next()? {
            if self.seen.insert(row.clone()) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Yield at most `k` rows, then stop pulling from the input entirely.
pub struct TakeStream<'a, S: RowStream<'a>> {
    input: S,
    remaining: usize,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a, S: RowStream<'a>> TakeStream<'a, S> {
    /// Cap `input` at `k` rows.
    pub fn new(input: S, k: usize) -> Self {
        TakeStream {
            input,
            remaining: k,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<'a, S: RowStream<'a>> RowStream<'a> for TakeStream<'a, S> {
    fn next(&mut self) -> Result<Option<RowRef<'a>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(row) => {
                self.remaining -= 1;
                Ok(Some(row))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BeasError;
    use crate::value::Value;

    fn row(x: i64) -> RowRef<'static> {
        RowRef::owned(vec![Value::Int(x)])
    }

    fn ints(rows: &[RowRef<'_>]) -> Vec<i64> {
        rows.iter()
            .map(|r| match r.get(0) {
                Some(Value::Int(i)) => *i,
                other => panic!("unexpected value {other:?}"),
            })
            .collect()
    }

    #[test]
    fn vec_stream_yields_in_order() {
        let mut s = VecStream::new(vec![row(1), row(2), row(3)]);
        let out = s.collect_rows().unwrap();
        assert_eq!(ints(&out), vec![1, 2, 3]);
        assert!(s.next().unwrap().is_none());
    }

    #[test]
    fn filter_stream_keeps_matches_and_propagates_errors() {
        let s = VecStream::new(vec![row(1), row(2), row(3), row(4)]);
        let mut f = FilterStream::new(s, |r| {
            Ok(matches!(r.get(0), Some(Value::Int(i)) if i % 2 == 0))
        });
        assert_eq!(ints(&f.collect_rows().unwrap()), vec![2, 4]);

        let s = VecStream::new(vec![row(1)]);
        let mut f = FilterStream::new(s, |_| -> Result<bool> { Err(BeasError::execution("boom")) });
        assert!(f.next().is_err());
    }

    #[test]
    fn map_stream_transforms_rows() {
        let s = VecStream::new(vec![row(1), row(2)]);
        let mut m = MapStream::new(s, |r| {
            let v = match r.get(0) {
                Some(Value::Int(i)) => *i * 10,
                _ => unreachable!(),
            };
            Ok(RowRef::owned(vec![Value::Int(v)]))
        });
        assert_eq!(ints(&m.collect_rows().unwrap()), vec![10, 20]);
    }

    #[test]
    fn dedupe_stream_is_incremental_and_order_preserving() {
        let s = VecStream::new(vec![row(1), row(2), row(1), row(3), row(2)]);
        let mut d = DedupeStream::new(s);
        assert_eq!(ints(&d.collect_rows().unwrap()), vec![1, 2, 3]);
    }

    #[test]
    fn take_stream_stops_pulling_at_k() {
        // A stream that panics past position 2 proves take(2) never
        // over-pulls.
        struct Fused {
            at: usize,
        }
        impl<'a> RowStream<'a> for Fused {
            fn next(&mut self) -> Result<Option<RowRef<'a>>> {
                self.at += 1;
                assert!(self.at <= 2, "pulled past the take cap");
                Ok(Some(RowRef::owned(vec![Value::Int(self.at as i64)])))
            }
        }
        let mut t = TakeStream::new(Fused { at: 0 }, 2);
        assert_eq!(ints(&t.collect_rows().unwrap()), vec![1, 2]);
        assert!(t.next().unwrap().is_none());

        // take(0) never pulls at all
        let mut t0 = TakeStream::new(Fused { at: 10 }, 0);
        assert!(t0.next().unwrap().is_none());
    }

    #[test]
    fn boxed_streams_are_streams() {
        let mut s: Box<dyn RowStream<'static>> = Box::new(VecStream::new(vec![row(7)]));
        assert_eq!(ints(&[s.next().unwrap().unwrap()]), vec![7]);
        assert!(s.next().unwrap().is_none());
    }
}
