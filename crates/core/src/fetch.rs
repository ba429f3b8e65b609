//! One `fetch(X ∈ T, Y, R)` step of a bounded plan, run over the context.
//!
//! The planner resolved the step ([`PlannedFetch::resolved`]): where in a
//! context row each key value sits, the context schema after the step (whose
//! `X` fields are the types key values are cast to), the id of the index, and
//! the step's predicates over context positions.  What is left for an
//! execution is what depends on the statement's values and on the data:
//!
//! 1. **Keys.**  The constants of the key are cast to their attribute's type
//!    and canonicalised ([`beas_common::key`]) once for the step; every
//!    context row then takes the product of its options per key position —
//!    one key, unless an IN-list is a key source.  NULL never equals
//!    anything: a NULL key value leaves the row without a key, and it joins
//!    nothing, like a NULL join key in the conventional engine.
//! 2. **Probes.**  Each distinct key is looked up once, in first-seen order;
//!    the tuples of its bucket are the step's *accessed* tuples.  Under a
//!    [`KeyCap`] only a prefix of the keys is taken, and the walk stops
//!    before the bucket that would overrun the cap.
//! 3. **Join.**  A context row is extended by a shared segment holding the
//!    key (`X`) and a segment borrowing each tuple of the key's bucket (`Y`)
//!    straight out of the index, and kept if it passes the step's
//!    predicates.  Evaluation errors propagate, as in the engine.
//!
//! **Why the step does not deduplicate.**  The context is a set by
//! construction.  It starts as one empty row.  A step's output row is a
//! (context row, key, tuple) triple laid out at fixed positions, so two
//! output rows are equal only if all three components are.  Context rows are
//! distinct by induction; the keys one row takes are distinct because each
//! position's options are deduplicated after canonicalisation; and a bucket
//! holds distinct partial tuples — that is what a constraint index stores
//! (`ConstraintIndex::check_invariants`).  Distinct triples in, distinct
//! rows out, and predicates only remove rows.  Debug builds and the
//! `validate` feature assert it on every step.

use crate::plan::{KeySource, PlannedFetch};
use beas_access::AccessIndexes;
use beas_common::{canonical_key_value, dedupe, BeasError, DataType, Result, Row, RowRef, Value};
use beas_sql::{evaluate_predicate, BoundExpr};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A cap on one fetch step, set by resource-bounded approximation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyCap {
    /// Only the first `max_keys` distinct keys (first-seen order) are
    /// candidates for a lookup.
    pub max_keys: usize,
    /// The step stops before the first bucket that would take its accessed
    /// tuples past this.
    pub max_tuples: u64,
}

/// What one fetch step produced.
pub(crate) struct FetchStepOutput<'a> {
    /// The joined, filtered context rows, over the step's resolved schema.
    pub rows: Vec<RowRef<'a>>,
    /// Partial tuples accessed through the constraint index.
    pub accessed: u64,
    /// Distinct keys the context asked for.
    pub keys_total: usize,
    /// How many of them were looked up: all, unless a [`KeyCap`] cut the
    /// step short.
    pub keys_fetched: usize,
}

impl FetchStepOutput<'_> {
    /// The step's line in the execution metrics, `Fetch(<constraint id>)`
    /// for `kind` "Fetch"; with `detail` also what the step did beside what
    /// the plan allowed it — `keys 22/22, 44 of ≤ 11000 tuples`.
    pub(crate) fn label(&self, kind: &str, fetch: &PlannedFetch, detail: bool) -> String {
        let id = &fetch.resolved.index_id;
        if !detail {
            return [kind, "(", id, ")"].concat();
        }
        format!(
            "{kind}({id}) keys {}/{}, {} of ≤ {} tuples",
            self.keys_fetched, self.keys_total, self.accessed, fetch.bound
        )
    }
}

/// `value` as a key of an attribute of type `data_type`: cast, so that index
/// lookups compare like with like, then canonical, so that the lookup agrees
/// with the index and with the conventional joins on numeric/date coercion.
fn key_value(value: &Value, data_type: DataType) -> Result<Value> {
    if value.data_type() == Some(data_type) {
        return Ok(canonical_key_value(value));
    }
    Ok(canonical_key_value(&value.cast(data_type)?))
}

/// The key options a list of constants leaves.  A repeat — `IN ('a', 'a')`,
/// or `IN (5, 5.0)` on an integer key — would give one context row the same
/// key twice, and the same joined rows twice.
fn fixed_options(constants: &[Value], data_type: DataType) -> Result<Vec<Value>> {
    let options = constants
        .iter()
        .filter(|v| !v.is_null())
        .map(|v| key_value(v, data_type))
        .collect::<Result<Vec<_>>>()?;
    Ok(if options.len() > 1 {
        dedupe(options)
    } else {
        options
    })
}

fn passes(filters: &[BoundExpr], row: &RowRef<'_>) -> Result<bool> {
    for filter in filters {
        if !evaluate_predicate(filter, row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Run one fetch step over the context `rows` (module docs).  With a `cap`
/// only a prefix of the distinct keys is looked up and context rows whose key
/// was left out join nothing — the step resource-bounded approximation runs.
pub(crate) fn run_fetch<'a>(
    fetch: &PlannedFetch,
    indexes: &'a AccessIndexes,
    rows: &[RowRef<'a>],
    cap: Option<KeyCap>,
) -> Result<FetchStepOutput<'a>> {
    let resolved = &*fetch.resolved;
    let index = indexes.get(&resolved.index_id).ok_or_else(|| {
        BeasError::execution(format!(
            "no index built for access constraint {}",
            fetch.constraint
        ))
    })?;
    let mut out = FetchStepOutput {
        rows: Vec::new(),
        accessed: 0,
        keys_total: 0,
        keys_fetched: 0,
    };
    // no row asks for a key: nothing is cast, so nothing can fail to
    if rows.is_empty() {
        return Ok(out);
    }

    // 1. Keys.
    let x_len = fetch.keys.len();
    let fields = resolved.schema.fields();
    let key_fields = &fields[fields.len() - x_len - fetch.constraint.y.len()..][..x_len];
    let fixed: Vec<Option<Vec<Value>>> = (fetch.keys.iter().zip(key_fields))
        .map(|(source, field)| {
            let constants = match source {
                KeySource::Constant(v) => std::slice::from_ref(v),
                KeySource::Constants(vs) => vs,
                KeySource::Ctx(..) => return Ok(None),
            };
            fixed_options(constants, field.data_type).map(Some)
        })
        .collect::<Result<_>>()?;
    let mut distinct_keys: Vec<Vec<Value>> = Vec::new();
    let mut seen_keys: HashSet<Vec<Value>> = HashSet::new();
    let mut row_keys: Vec<Vec<Vec<Value>>> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut alternatives: Vec<Vec<Value>> = vec![vec![]];
        for ((fixed, position), field) in fixed.iter().zip(&resolved.key_positions).zip(key_fields)
        {
            let own;
            let options: &[Value] = match (fixed, position) {
                (Some(options), _) => options,
                (None, Some(i)) => {
                    let v = row
                        .get(*i)
                        .ok_or_else(|| BeasError::execution("context key out of bounds"))?;
                    own = match v {
                        Value::Null => vec![],
                        v => vec![key_value(v, field.data_type)?],
                    };
                    &own
                }
                (None, None) => {
                    return Err(BeasError::execution("fetch key resolved to no position"))
                }
            };
            let mut next = Vec::with_capacity(alternatives.len() * options.len());
            for alt in &alternatives {
                for opt in options {
                    let mut key = alt.clone();
                    key.push(opt.clone());
                    next.push(key);
                }
            }
            alternatives = next;
        }
        for key in &alternatives {
            if seen_keys.insert(key.clone()) {
                distinct_keys.push(key.clone());
            }
        }
        row_keys.push(alternatives);
    }
    out.keys_total = distinct_keys.len();

    // 2. Probes.
    let (candidates, max_tuples) = match cap {
        Some(cap) => (distinct_keys.len().min(cap.max_keys), cap.max_tuples),
        None => (distinct_keys.len(), u64::MAX),
    };
    let mut buckets: HashMap<&[Value], (Arc<Row>, &'a [Row])> = HashMap::with_capacity(candidates);
    for key in &distinct_keys[..candidates] {
        let bucket = index.fetch(key);
        if out.accessed + bucket.len() as u64 > max_tuples {
            break;
        }
        out.accessed += bucket.len() as u64;
        buckets.insert(key, (Arc::new(key.clone()), bucket));
    }
    out.keys_fetched = buckets.len();

    // 3. Join.
    for (row, keys) in rows.iter().zip(&row_keys) {
        for key in keys {
            // a key the cap left out joins nothing
            let Some((x_prefix, bucket)) = buckets.get(key.as_slice()) else {
                continue;
            };
            for tuple in *bucket {
                let mut joined = row.clone();
                joined.push_shared(Arc::clone(x_prefix));
                joined.push_slice(tuple);
                if passes(&fetch.post_filters, &joined)? {
                    out.rows.push(joined);
                }
            }
        }
    }
    #[cfg(any(debug_assertions, feature = "validate"))]
    assert_eq!(
        out.rows.iter().collect::<HashSet<_>>().len(),
        out.rows.len(),
        "fetch through {} produced a row twice: the context is no longer a set",
        resolved.index_id
    );
    Ok(out)
}
