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
//! The trait is deliberately tiny (`next()` only).  The engine's operators
//! (scans with metrics, filters, joins, top-k sorts) implement it directly,
//! each carrying its own metrics counters.

use crate::error::Result;
use crate::rowref::RowRef;

/// A lazy, fallible stream of [`RowRef`]s — the pipelined operator
/// interface.
///
/// `next()` returns `Ok(Some(row))` while rows remain, `Ok(None)` at
/// exhaustion, and `Err(_)` when producing the next row fails (the error
/// aborts the pipeline; a stream need not be pollable after an error).
pub trait RowStream<'a> {
    /// Pull the next row.
    fn next(&mut self) -> Result<Option<RowRef<'a>>>;
}

impl<'a, S: RowStream<'a> + ?Sized> RowStream<'a> for Box<S> {
    fn next(&mut self) -> Result<Option<RowRef<'a>>> {
        (**self).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// Yields its one row, then nothing.
    struct Once(Option<RowRef<'static>>);

    impl RowStream<'static> for Once {
        fn next(&mut self) -> Result<Option<RowRef<'static>>> {
            Ok(self.0.take())
        }
    }

    #[test]
    fn boxed_streams_are_streams() {
        let row = RowRef::owned(vec![Value::Int(7)]);
        let mut s: Box<dyn RowStream<'static>> = Box::new(Once(Some(row)));
        assert_eq!(s.next().unwrap().unwrap().get(0), Some(&Value::Int(7)));
        assert!(s.next().unwrap().is_none());
    }
}
