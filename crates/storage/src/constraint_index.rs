//! The *modified hash index* of an access constraint `R(X → Y, N)`.
//!
//! Per Section 2 of the paper, the index takes the `X` attributes as key and
//! each key value `ā` points to the bucket `D_Y(X = ā)`: the set of **at most
//! `N` distinct `Y`-values** (partial tuples) associated with `ā` in `D`.
//! A `fetch(X ∈ T, Y, R)` operation in a bounded plan retrieves these buckets
//! and therefore accesses at most `N` tuples per key — this is what makes the
//! amount of data a bounded plan touches independent of `|D|`.
//!
//! ## Counted buckets
//!
//! Several base rows can carry the same `(X, Y)` partial tuple.  Each bucket
//! entry records how many do: an insert increments the count, a delete
//! decrements it and drops the entry at zero.  Maintenance therefore costs
//! O(rows in the batch × bucket size) and never looks at the table.
//!
//! ## Structural sharing
//!
//! The buckets are partitioned into bounded-size *shards* addressed through
//! an extendible-hashing directory, and sharing goes down to the bucket:
//! clones share every shard (`Arc`), a shard holds its keys and buckets by
//! `Arc`, so copying the shard of a touched key copies handles — at most
//! `SHARD_MAX_KEYS` reference-count bumps — and only the touched bucket is
//! deep-copied.  When a shard outgrows `SHARD_MAX_KEYS` it is split in two by
//! the next hash bit (doubling the pointer-only directory when needed),
//! which keeps the per-write handle copy bounded as the index grows.

use crate::copy_stats::CopyStats;
use crate::table::{estimated_value_bytes, Table};
use beas_common::{index_key, BeasError, Result, Row, Value};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Soft bound on distinct keys per shard: a shard over this size is split.
const SHARD_MAX_KEYS: usize = 256;

/// Hard ceiling on shard depth (directory of at most `2^MAX_DEPTH` slots);
/// a pathological all-collisions key set stops splitting here and simply
/// holds an oversized shard, which stays correct.
const MAX_DEPTH: u32 = 24;

/// The distinct `Y` partial tuples of one `X`-key, each with the number of
/// base rows that carry it.
#[derive(Debug, Clone)]
struct Bucket {
    rows: Vec<Row>,
    /// Multiplicity of `rows[i]`.  Left empty (no allocation) while every
    /// partial tuple has exactly one base row; parallel to `rows` otherwise.
    counts: Vec<u32>,
}

impl Bucket {
    fn count(&self, i: usize) -> u32 {
        self.counts.get(i).copied().unwrap_or(1)
    }

    /// Record one more base row carrying `y`.  Returns whether `y` is new to
    /// the bucket.
    fn add(&mut self, y: Row) -> bool {
        let Some(i) = self.rows.iter().position(|r| *r == y) else {
            self.rows.push(y);
            if !self.counts.is_empty() {
                self.counts.push(1);
            }
            return true;
        };
        if self.counts.is_empty() {
            self.counts = vec![1; self.rows.len()];
        }
        self.counts[i] = self.counts[i]
            .checked_add(1)
            .expect("fewer than 2^32 base rows share one partial tuple");
        false
    }

    /// Forget one base row carrying `y`.  Returns whether it was the last
    /// one, so that `y` left the bucket.  Entries keep their relative order.
    fn remove<'v>(&mut self, y: impl Iterator<Item = &'v Value> + Clone) -> bool {
        let Some(i) = self.rows.iter().position(|r| r.iter().eq(y.clone())) else {
            return false;
        };
        if self.count(i) > 1 {
            self.counts[i] -= 1;
            return false;
        }
        self.rows.remove(i);
        if !self.counts.is_empty() {
            self.counts.remove(i);
        }
        true
    }
}

/// A deterministic dump of an index ([`ConstraintIndex::sorted_entries`]):
/// per key, its partial tuples with the number of base rows behind each.
pub type IndexDump = Vec<(Vec<Value>, Vec<(Row, u32)>)>;

/// One bounded partition of the key space.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// Number of hash bits this shard is keyed on.
    local_depth: u32,
    /// X-key -> counted distinct Y partial tuples.  Keys are canonical
    /// (`beas_common::index_key`); probes borrow them as `&[Value]`.
    buckets: HashMap<Arc<[Value]>, Arc<Bucket>>,
    /// Largest bucket currently in this shard.
    max_bucket: usize,
}

impl Shard {
    fn recompute_max(&mut self) {
        self.max_bucket = self
            .buckets
            .values()
            .map(|b| b.rows.len())
            .max()
            .unwrap_or(0);
    }
}

/// The physical index structure backing one access constraint.
#[derive(Debug, Clone)]
pub struct ConstraintIndex {
    table: String,
    x_columns: Vec<String>,
    y_columns: Vec<String>,
    x_indices: Vec<usize>,
    y_indices: Vec<usize>,
    /// Key-to-shard routing hasher; shared by all clones of this index so a
    /// key always routes to the same slot across generations.
    hasher: RandomState,
    /// Directory depth: the directory has `1 << global_depth` slots.
    global_depth: u32,
    /// Slot -> index into `shards`.  A shard of local depth `d` appears in
    /// every slot whose low `d` hash bits match its pattern.
    directory: Arc<Vec<u32>>,
    /// The shards themselves, each referenced by exactly one index here and
    /// shared with clones until written.
    shards: Arc<Vec<Arc<Shard>>>,
    /// Total number of stored partial tuples (maintained incrementally).
    entries: usize,
    /// Largest bucket observed anywhere in the index.
    max_bucket: usize,
    copied: CopyStats,
}

impl ConstraintIndex {
    /// Build the index for `R(X → Y, _)` over the current contents of `table`.
    ///
    /// Duplicate `Y`-values for the same key are collapsed into one counted
    /// entry (the index stores *distinct* partial tuples, which is exactly
    /// what `fetch` must return).
    pub fn build(table: &Table, x_columns: &[String], y_columns: &[String]) -> Result<Self> {
        if x_columns.is_empty() || y_columns.is_empty() {
            return Err(BeasError::invalid_argument(
                "access constraint needs non-empty X and Y attribute sets",
            ));
        }
        let x_indices = table.schema().resolve_columns(x_columns)?;
        let y_indices = table.schema().resolve_columns(y_columns)?;
        let mut index = ConstraintIndex {
            table: table.name().to_string(),
            x_columns: x_columns.iter().map(|c| c.to_ascii_lowercase()).collect(),
            y_columns: y_columns.iter().map(|c| c.to_ascii_lowercase()).collect(),
            x_indices,
            y_indices,
            hasher: RandomState::new(),
            global_depth: 0,
            directory: Arc::new(vec![0]),
            shards: Arc::new(vec![Arc::new(Shard::default())]),
            entries: 0,
            max_bucket: 0,
            copied: CopyStats::default(),
        };
        for (_, row) in table.iter() {
            index.add_row(row);
        }
        Ok(index)
    }

    /// The indexed table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The key (`X`) attributes.
    pub fn x_columns(&self) -> &[String] {
        &self.x_columns
    }

    /// The fetched (`Y`) attributes.
    pub fn y_columns(&self) -> &[String] {
        &self.y_columns
    }

    /// Routing hash of a canonical key.
    fn hash_key<Q: Hash + ?Sized>(hasher: &RandomState, key: &Q) -> u64 {
        hasher.hash_one(key)
    }

    /// Directory slot of a key hash.
    fn slot_of(&self, hash: u64) -> usize {
        (hash as usize) & ((1usize << self.global_depth) - 1)
    }

    /// Position in `shards` of the shard a canonical key routes to.
    fn shard_index(&self, key: &[Value]) -> usize {
        self.directory[self.slot_of(Self::hash_key(&self.hasher, key))] as usize
    }

    /// The bucket of a canonical key, if the key is present.
    fn bucket(&self, key: &[Value]) -> Option<&Arc<Bucket>> {
        self.shards[self.shard_index(key)].buckets.get(key)
    }

    /// Fetch the distinct `Y` partial tuples for one `X`-key — the primitive
    /// operation behind the bounded plan `fetch` operator.
    ///
    /// The key is canonicalized through the shared key module
    /// (`beas_common::key`), so callers may pass e.g. a `'2016-07-04'`
    /// string for a `DATE` key attribute and still hit the right bucket —
    /// the same coercion rule the join paths use.
    pub fn fetch(&self, key: &[Value]) -> &[Row] {
        // Fast path: already-canonical keys (no date-shaped strings, no
        // normalizable floats) look up directly without rebuilding the key.
        let bucket = if key.iter().all(beas_common::is_canonical_key_value) {
            self.bucket(key)
        } else {
            self.bucket(&index_key(key))
        };
        bucket.map(|b| b.rows.as_slice()).unwrap_or(&[])
    }

    /// Fetch for many keys, returning the union (with the number of partial
    /// tuples accessed, which bounded-plan accounting reports).
    pub fn fetch_many<'a>(&self, keys: impl IntoIterator<Item = &'a [Value]>) -> (Vec<Row>, u64) {
        let mut out = Vec::new();
        let mut accessed = 0u64;
        for key in keys {
            let bucket = self.fetch(key);
            accessed += bucket.len() as u64;
            out.extend(bucket.iter().cloned());
        }
        (out, accessed)
    }

    /// All `(key, bucket)` pairs, in no particular order.
    fn buckets(&self) -> impl Iterator<Item = (&Arc<[Value]>, &Arc<Bucket>)> {
        self.shards.iter().flat_map(|s| s.buckets.iter())
    }

    /// Number of distinct keys in the index.
    pub fn distinct_keys(&self) -> usize {
        self.shards.iter().map(|s| s.buckets.len()).sum()
    }

    /// Total number of stored partial tuples.
    pub fn total_entries(&self) -> usize {
        self.entries
    }

    /// The observed maximum bucket size, i.e. the smallest `N` for which the
    /// data currently conforms to the cardinality constraint.
    pub fn observed_max_cardinality(&self) -> usize {
        self.max_bucket
    }

    /// The maximum bucket size the index would observe after `rows` (stored,
    /// i.e. schema-coerced, rows of the indexed table) were added, without
    /// adding them: each touched key's bucket grows by the distinct
    /// `Y`-values of the batch it does not hold yet.  O(batch × bucket).
    pub fn max_cardinality_with(&self, rows: &[Row]) -> usize {
        let mut fresh: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
        let mut max = self.max_bucket;
        for row in rows {
            let key = self.x_key(row);
            let y = self.y_values(row);
            let held: &[Row] = self.bucket(&key).map_or(&[], |b| b.rows.as_slice());
            if held.contains(&y) {
                continue;
            }
            let pending = fresh.entry(key).or_default();
            if !pending.contains(&y) {
                pending.push(y);
                max = max.max(held.len() + pending.len());
            }
        }
        max
    }

    /// Whether the data conforms to `|D_Y(X = ā)| ≤ n` for every key.
    pub fn conforms_to(&self, n: u64) -> bool {
        self.max_bucket as u64 <= n
    }

    /// Keys whose buckets exceed `n` (the conformance violations).
    pub fn violations(&self, n: u64) -> Vec<(Vec<Value>, usize)> {
        self.buckets()
            .filter(|(_, b)| b.rows.len() as u64 > n)
            .map(|(k, b)| (k.to_vec(), b.rows.len()))
            .collect()
    }

    /// Rough index size in bytes, for the discovery module's storage budget.
    pub fn estimated_bytes(&self) -> usize {
        self.buckets()
            .map(|(k, b)| {
                k.iter().map(estimated_value_bytes).sum::<usize>()
                    + b.rows
                        .iter()
                        .map(|r| r.iter().map(estimated_value_bytes).sum::<usize>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Number of hash shards backing the index.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of shards whose storage is physically shared (same allocation)
    /// with `other` — the structural-sharing diagnostic used by snapshot
    /// tests.
    pub fn shared_shard_count(&self, other: &ConstraintIndex) -> usize {
        self.shards
            .iter()
            .filter(|s| other.shards.iter().any(|o| Arc::ptr_eq(s, o)))
            .count()
    }

    /// Number of keys whose bucket is physically shared (same allocation)
    /// with `other`'s bucket for that key — sharing one level below
    /// [`ConstraintIndex::shared_shard_count`]: a copied shard still shares
    /// every bucket the write did not touch.
    pub fn shared_bucket_count(&self, other: &ConstraintIndex) -> usize {
        self.buckets()
            .filter(|(k, b)| other.bucket(k).is_some_and(|o| Arc::ptr_eq(b, o)))
            .count()
    }

    /// Running totals of the copy-on-write work this index (and the clones
    /// it descends from) has done: shards and buckets cloned.
    pub fn copy_stats(&self) -> CopyStats {
        self.copied
    }

    /// The canonical bucket key of a base-table row.
    fn x_key(&self, row: &Row) -> Vec<Value> {
        index_key(self.x_indices.iter().map(|&i| &row[i]))
    }

    /// The `Y` partial tuple of a base-table row.
    fn y_values(&self, row: &Row) -> Row {
        self.y_indices.iter().map(|&i| row[i].clone()).collect()
    }

    /// Copy-on-write access to one shard.  The spine vector clones
    /// pointer-shallowly; the shard, if still shared with another
    /// generation, clones its map of key and bucket handles — no key and no
    /// bucket is copied here.
    fn shard_mut<'s>(
        shards: &'s mut Arc<Vec<Arc<Shard>>>,
        sidx: usize,
        copied: &mut CopyStats,
    ) -> &'s mut Shard {
        let shard = &mut Arc::make_mut(shards)[sidx];
        if Arc::get_mut(shard).is_none() {
            copied.shards_cloned += 1;
        }
        Arc::make_mut(shard)
    }

    /// Copy-on-write access to one bucket of a shard this index owns.
    fn bucket_mut<'b>(bucket: &'b mut Arc<Bucket>, copied: &mut CopyStats) -> &'b mut Bucket {
        if Arc::get_mut(bucket).is_none() {
            copied.buckets_cloned += 1;
        }
        Arc::make_mut(bucket)
    }

    /// Count one more base row behind the `(key, y)` partial tuple, splitting
    /// the target shard if a new key overflows it.
    fn insert_entry(&mut self, key: Vec<Value>, y: Row) {
        let hash = Self::hash_key(&self.hasher, key.as_slice());
        let sidx = self.directory[self.slot_of(hash)] as usize;
        let shard = Self::shard_mut(&mut self.shards, sidx, &mut self.copied);
        let (is_new_key, len) = match shard.buckets.get_mut(key.as_slice()) {
            Some(handle) => {
                let bucket = Self::bucket_mut(handle, &mut self.copied);
                if !bucket.add(y) {
                    return;
                }
                (false, bucket.rows.len())
            }
            None => {
                let bucket = Bucket {
                    rows: vec![y],
                    counts: Vec::new(),
                };
                shard.buckets.insert(Arc::from(key), Arc::new(bucket));
                (true, 1)
            }
        };
        shard.max_bucket = shard.max_bucket.max(len);
        self.max_bucket = self.max_bucket.max(len);
        self.entries += 1;
        if is_new_key {
            self.maybe_split(hash);
        }
    }

    /// Split the shard on this key's path until it fits the size bound (or
    /// the depth ceiling is reached).
    fn maybe_split(&mut self, hash: u64) {
        loop {
            let slot = self.slot_of(hash);
            let shard = &self.shards[self.directory[slot] as usize];
            if shard.buckets.len() <= SHARD_MAX_KEYS || shard.local_depth >= MAX_DEPTH {
                return;
            }
            self.split_once(slot);
        }
    }

    /// One extendible-hashing split of the shard at `slot`: its keys are
    /// repartitioned by the next hash bit into two half-shards (handles
    /// move, buckets stay where they are), and the directory (pointers only)
    /// is re-aimed — doubling it first if the shard was already at full
    /// directory depth.
    fn split_once(&mut self, slot: usize) {
        let hasher = self.hasher.clone();
        let ld = self.shards[self.directory[slot] as usize].local_depth;
        if ld == self.global_depth {
            let dir = Arc::make_mut(&mut self.directory);
            let doubled: Vec<u32> = dir.iter().chain(dir.iter()).copied().collect();
            *dir = doubled;
            self.global_depth += 1;
        }
        let bit = 1u64 << ld;
        let sidx = self.directory[slot] as usize;
        let lo = Self::shard_mut(&mut self.shards, sidx, &mut self.copied);
        lo.local_depth = ld + 1;
        let mut hi = Shard {
            local_depth: ld + 1,
            ..Shard::default()
        };
        let moved: Vec<Arc<[Value]>> = lo
            .buckets
            .keys()
            .filter(|k| Self::hash_key(&hasher, k) & bit != 0)
            .cloned()
            .collect();
        for k in moved {
            let b = lo.buckets.remove(&*k).expect("key listed for move");
            hi.buckets.insert(k, b);
        }
        lo.recompute_max();
        hi.recompute_max();
        let shards = Arc::make_mut(&mut self.shards);
        let hi_idx = shards.len() as u32;
        shards.push(Arc::new(hi));
        let dir = Arc::make_mut(&mut self.directory);
        let low_mask = (1usize << ld) - 1;
        let pattern = slot & low_mask;
        for (i, entry) in dir.iter_mut().enumerate() {
            if i & low_mask == pattern && (i as u64) & bit != 0 {
                *entry = hi_idx;
            }
        }
    }

    /// Incrementally index one newly inserted base-table row.
    pub fn add_row(&mut self, row: &Row) {
        self.insert_entry(self.x_key(row), self.y_values(row));
    }

    /// Incrementally un-index a batch of deleted base-table rows.
    ///
    /// Each row decrements the count of its `(X, Y)` entry; an entry whose
    /// last base row went is dropped, and so is a key whose last entry went.
    /// Only the buckets of the removed rows are touched — the table is not
    /// consulted — and every other bucket stays physically shared with other
    /// generations of the index.  A row the index never counted is ignored.
    pub fn remove_rows<'r>(&mut self, removed: impl IntoIterator<Item = &'r Row>) {
        for row in removed {
            let key = self.x_key(row);
            let sidx = self.shard_index(&key);
            let shard = Self::shard_mut(&mut self.shards, sidx, &mut self.copied);
            let Some(handle) = shard.buckets.get_mut(key.as_slice()) else {
                continue;
            };
            let bucket = Self::bucket_mut(handle, &mut self.copied);
            let len_before = bucket.rows.len();
            if !bucket.remove(self.y_indices.iter().map(|&i| &row[i])) {
                continue;
            }
            self.entries -= 1;
            if bucket.rows.is_empty() {
                shard.buckets.remove(key.as_slice());
            }
            if len_before == shard.max_bucket {
                shard.recompute_max();
            }
        }
        // The global maximum can shrink; the per-shard maxima are cached,
        // so one pass over the shard handles per batch refreshes it.
        self.max_bucket = self.shards.iter().map(|s| s.max_bucket).max().unwrap_or(0);
    }

    /// Deterministic dump of the whole index — keys, bucket contents and
    /// each partial tuple's base-row count, in sorted order — used by tests
    /// to assert that incrementally maintained indices equal indices rebuilt
    /// from scratch.
    pub fn sorted_entries(&self) -> IndexDump {
        fn cmp_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or_else(|| a.len().cmp(&b.len()))
        }
        let mut out: IndexDump = self
            .buckets()
            .map(|(k, b)| {
                let mut counted: Vec<(Row, u32)> = b
                    .rows
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.clone(), b.count(i)))
                    .collect();
                counted.sort_by(|x, y| cmp_rows(&x.0, &y.0));
                (k.to_vec(), counted)
            })
            .collect();
        out.sort_by(|x, y| cmp_rows(&x.0, &y.0));
        out
    }

    /// Validate the extendible-hashing structure and the cached aggregates.
    /// O(entries) — compiled only into debug builds and `--features
    /// validate` builds.
    ///
    /// Checks:
    /// 1. the directory has exactly `2^global_depth` slots and every slot
    ///    points at an existing shard,
    /// 2. a shard of local depth `d` is referenced by exactly
    ///    `2^(global_depth - d)` slots, all agreeing on their low `d` bits,
    /// 3. every stored key is canonical, has `X`-arity, and routes (via its
    ///    hash) to the shard that holds it,
    /// 4. buckets are non-empty, duplicate-free, and hold `Y`-arity rows,
    ///    each backed by at least one base row,
    /// 5. the cached per-shard and global `max_bucket` and the cached
    ///    `entries` count match the stored data.
    #[cfg(any(debug_assertions, feature = "validate"))]
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |msg: String| {
            Err(BeasError::storage(format!(
                "constraint index on {:?} invariant violated: {msg}",
                self.table
            )))
        };
        if self.directory.len() != 1usize << self.global_depth {
            return fail(format!(
                "directory has {} slots, expected 2^{}",
                self.directory.len(),
                self.global_depth
            ));
        }
        let mut slots_of_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (slot, &sidx) in self.directory.iter().enumerate() {
            match slots_of_shard.get_mut(sidx as usize) {
                Some(slots) => slots.push(slot),
                None => return fail(format!("slot {slot} points at missing shard {sidx}")),
            }
        }
        for (sidx, (shard, slots)) in self.shards.iter().zip(&slots_of_shard).enumerate() {
            if shard.local_depth > self.global_depth {
                return fail(format!(
                    "shard {sidx} local depth {} exceeds global depth {}",
                    shard.local_depth, self.global_depth
                ));
            }
            let expected = 1usize << (self.global_depth - shard.local_depth);
            if slots.len() != expected {
                return fail(format!(
                    "shard {sidx} (depth {}) referenced by {} slots, expected {expected}",
                    shard.local_depth,
                    slots.len()
                ));
            }
            let low_mask = (1usize << shard.local_depth) - 1;
            let pattern = slots[0] & low_mask;
            if slots.iter().any(|s| s & low_mask != pattern) {
                return fail(format!(
                    "shard {sidx} slots disagree on their low {} bits",
                    shard.local_depth
                ));
            }
            let max = shard
                .buckets
                .values()
                .map(|b| b.rows.len())
                .max()
                .unwrap_or(0);
            if shard.max_bucket != max {
                return fail(format!(
                    "shard {sidx} caches max bucket {} but holds {max}",
                    shard.max_bucket
                ));
            }
            for (key, bucket) in &shard.buckets {
                if key.len() != self.x_indices.len() {
                    return fail(format!("key {key:?} does not have X-arity"));
                }
                if !key.iter().all(beas_common::is_canonical_key_value) {
                    return fail(format!("key {key:?} is not canonical"));
                }
                let home = self.shard_index(key);
                if home != sidx {
                    return fail(format!(
                        "key {key:?} lives in shard {sidx} but routes to shard {home}"
                    ));
                }
                if bucket.rows.is_empty() {
                    return fail(format!("key {key:?} has an empty bucket"));
                }
                if !bucket.counts.is_empty() && bucket.counts.len() != bucket.rows.len() {
                    return fail(format!(
                        "bucket of {key:?} holds {} rows but {} counts",
                        bucket.rows.len(),
                        bucket.counts.len()
                    ));
                }
                for (i, y) in bucket.rows.iter().enumerate() {
                    if y.len() != self.y_indices.len() {
                        return fail(format!("bucket of {key:?} holds a non-Y-arity row"));
                    }
                    if bucket.rows[..i].contains(y) {
                        return fail(format!("bucket of {key:?} holds duplicate {y:?}"));
                    }
                    if bucket.count(i) == 0 {
                        return fail(format!("bucket of {key:?} keeps {y:?} with no base row"));
                    }
                }
            }
        }
        let stored: usize = self.buckets().map(|(_, b)| b.rows.len()).sum();
        if self.entries != stored {
            return fail(format!(
                "cached entry count {} != {stored} stored partial tuples",
                self.entries
            ));
        }
        let max = self.shards.iter().map(|s| s.max_bucket).max().unwrap_or(0);
        if self.max_bucket != max {
            return fail(format!(
                "cached global max bucket {} but shards hold {max}",
                self.max_bucket
            ));
        }
        Ok(())
    }

    /// Validate that this (incrementally maintained) index holds exactly the
    /// distinct partial tuples derivable from `table`, each with the number
    /// of base rows that carry it — i.e. it equals an index rebuilt from
    /// scratch, and its counts add up to the table's rows.  O(rows log rows);
    /// validation builds only.
    #[cfg(any(debug_assertions, feature = "validate"))]
    pub fn check_against_table(&self, table: &Table) -> Result<()> {
        self.check_invariants()?;
        let counted: u64 = self
            .buckets()
            .map(|(_, b)| {
                (0..b.rows.len())
                    .map(|i| u64::from(b.count(i)))
                    .sum::<u64>()
            })
            .sum();
        if counted != table.row_count() as u64 {
            return Err(BeasError::storage(format!(
                "constraint index on {:?} counts {counted} base rows, the table holds {}",
                self.table,
                table.row_count()
            )));
        }
        let rebuilt = ConstraintIndex::build(table, &self.x_columns, &self.y_columns)?;
        if self.sorted_entries() != rebuilt.sorted_entries() {
            return Err(BeasError::storage(format!(
                "constraint index on {:?} has drifted from its table: \
                 {} keys / {} entries indexed vs {} keys / {} entries derivable",
                self.table,
                self.distinct_keys(),
                self.entries,
                rebuilt.distinct_keys(),
                rebuilt.entries,
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::{ColumnDef, DataType, TableSchema};

    fn call_table() -> Table {
        let mut t = Table::new(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        );
        t.insert_many(vec![
            vec![
                Value::str("a"),
                Value::str("x"),
                Value::str("2016-07-04"),
                Value::str("east"),
            ],
            vec![
                Value::str("a"),
                Value::str("y"),
                Value::str("2016-07-04"),
                Value::str("east"),
            ],
            // duplicate partial tuple (a, x) on the same date: must collapse
            vec![
                Value::str("a"),
                Value::str("x"),
                Value::str("2016-07-04"),
                Value::str("east"),
            ],
            vec![
                Value::str("a"),
                Value::str("z"),
                Value::str("2016-07-05"),
                Value::str("west"),
            ],
            vec![
                Value::str("b"),
                Value::str("x"),
                Value::str("2016-07-04"),
                Value::str("east"),
            ],
        ])
        .unwrap();
        t
    }

    fn index(t: &Table) -> ConstraintIndex {
        ConstraintIndex::build(
            t,
            &["pnum".into(), "date".into()],
            &["recnum".into(), "region".into()],
        )
        .unwrap()
    }

    #[test]
    fn build_collapses_duplicates() {
        let t = call_table();
        let idx = index(&t);
        let d = Value::Date("2016-07-04".parse().unwrap());
        let bucket = idx.fetch(&[Value::str("a"), d.clone()]);
        assert_eq!(bucket.len(), 2); // (x, east), (y, east)
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.total_entries(), 4);
        assert_eq!(idx.observed_max_cardinality(), 2);
        assert!(idx.conforms_to(2));
        assert!(!idx.conforms_to(1));
        assert_eq!(idx.violations(1).len(), 1);
        assert!(idx.violations(2).is_empty());
        assert!(idx.fetch(&[Value::str("zz"), d]).is_empty());
    }

    #[test]
    fn fetch_many_counts_accesses() {
        let t = call_table();
        let idx = index(&t);
        let d = Value::Date("2016-07-04".parse().unwrap());
        let k1 = vec![Value::str("a"), d.clone()];
        let k2 = vec![Value::str("b"), d];
        let (rows, accessed) = idx.fetch_many([k1.as_slice(), k2.as_slice()]);
        assert_eq!(rows.len(), 3);
        assert_eq!(accessed, 3);
    }

    #[test]
    fn incremental_add_and_remove() {
        let mut t = call_table();
        let mut idx = index(&t);
        let id = t
            .insert(vec![
                Value::str("a"),
                Value::str("w"),
                Value::str("2016-07-04"),
                Value::str("east"),
            ])
            .unwrap();
        idx.add_row(t.row(id).unwrap());
        assert_eq!(idx.observed_max_cardinality(), 3);
        idx.check_against_table(&t).unwrap();

        // remove both copies of the duplicated (a, x) row, (a, y) and (a, z)
        let removed = t.delete_where(|r| r[0] == Value::str("a") && r[1] != Value::str("w"));
        assert_eq!(removed.len(), 4);
        idx.remove_rows(removed.iter().map(|(_, r)| r));
        let d = Value::Date("2016-07-04".parse().unwrap());
        assert_eq!(idx.fetch(&[Value::str("a"), d]).len(), 1);
        assert_eq!(idx.observed_max_cardinality(), 1);
        assert_eq!(idx.distinct_keys(), 2, "the emptied (a, 07-05) key is gone");
        idx.check_against_table(&t).unwrap();
        // a row the index never counted is ignored
        let before = idx.sorted_entries();
        idx.remove_rows(removed.iter().map(|(_, r)| r));
        assert_eq!(idx.sorted_entries(), before);
    }

    #[test]
    fn counts_keep_a_partial_tuple_until_its_last_base_row_goes() {
        let mut t = call_table();
        let mut idx = index(&t);
        let d = Value::Date("2016-07-04".parse().unwrap());
        let key = [Value::str("a"), d];
        let dump = |idx: &ConstraintIndex| idx.sorted_entries()[0].1.clone();
        let x_east = vec![Value::str("x"), Value::str("east")];
        let y_east = vec![Value::str("y"), Value::str("east")];
        assert_eq!(
            dump(&idx),
            vec![(x_east.clone(), 2), (y_east.clone(), 1)],
            "two base rows stand behind (x, east)"
        );
        // delete the two identical (a, x, 2016-07-04, east) rows one at a time
        for remaining in [1u32, 0] {
            let mut deleted_one = false;
            let removed = t.delete_where(|r| {
                let hit = !deleted_one && r[0] == Value::str("a") && r[1] == Value::str("x");
                deleted_one |= hit;
                hit
            });
            assert_eq!(removed.len(), 1);
            idx.remove_rows(removed.iter().map(|(_, r)| r));
            idx.check_against_table(&t).unwrap();
            if remaining == 1 {
                // still derivable from the remaining row
                assert_eq!(idx.fetch(&key).len(), 2);
                assert_eq!(dump(&idx), vec![(x_east.clone(), 1), (y_east.clone(), 1)]);
            } else {
                assert_eq!(idx.fetch(&key), std::slice::from_ref(&y_east));
            }
        }
        assert_eq!(idx.total_entries(), 3);
    }

    #[test]
    fn max_cardinality_with_counts_only_new_partial_tuples() {
        let t = call_table();
        let idx = index(&t);
        let row = |p: &str, r: &str, day: &str| {
            t.coerce_batch(vec![vec![
                Value::str(p),
                Value::str(r),
                Value::str(day),
                Value::str("east"),
            ]])
            .unwrap()
            .rows()[0]
                .clone()
        };
        assert_eq!(idx.max_cardinality_with(&[]), 2);
        // a duplicate of a held partial tuple does not grow its bucket
        assert_eq!(idx.max_cardinality_with(&[row("a", "x", "2016-07-04")]), 2);
        // two new partial tuples do, once each however often they repeat
        let batch = [
            row("a", "v", "2016-07-04"),
            row("a", "w", "2016-07-04"),
            row("a", "w", "2016-07-04"),
            row("zz", "q", "2016-07-04"),
        ];
        assert_eq!(idx.max_cardinality_with(&batch), 4);
        // ... exactly what adding them observes, and the probe added nothing
        assert_eq!(idx.total_entries(), 4);
        let mut applied = idx.clone();
        batch.iter().for_each(|r| applied.add_row(r));
        assert_eq!(applied.observed_max_cardinality(), 4);
    }

    #[test]
    fn invalid_construction() {
        let t = call_table();
        assert!(ConstraintIndex::build(&t, &[], &["region".into()]).is_err());
        assert!(ConstraintIndex::build(&t, &["pnum".into()], &[]).is_err());
        assert!(ConstraintIndex::build(&t, &["nope".into()], &["region".into()]).is_err());
    }

    #[test]
    fn estimated_bytes_nonzero() {
        let t = call_table();
        assert!(index(&t).estimated_bytes() > 0);
    }

    fn wide_table(keys: usize) -> Table {
        let mut t = Table::new(
            TableSchema::new(
                "wide",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            )
            .unwrap(),
        );
        t.insert_many(
            (0..keys as i64)
                .flat_map(|k| (0..2i64).map(move |v| vec![Value::Int(k), Value::Int(v)])),
        )
        .unwrap();
        t
    }

    #[test]
    fn sharding_splits_and_preserves_lookups() {
        // enough distinct keys to force several shard splits
        let keys = 4 * SHARD_MAX_KEYS;
        let t = wide_table(keys);
        let idx = ConstraintIndex::build(&t, &["k".into()], &["v".into()]).unwrap();
        assert!(idx.shards.len() > 1, "expected shard splits");
        assert_eq!(idx.distinct_keys(), keys);
        assert_eq!(idx.total_entries(), 2 * keys);
        assert_eq!(idx.observed_max_cardinality(), 2);
        for k in [0i64, 1, (keys / 2) as i64, keys as i64 - 1] {
            assert_eq!(idx.fetch(&[Value::Int(k)]).len(), 2);
        }
        assert!(idx.fetch(&[Value::Int(keys as i64)]).is_empty());
        // every shard respects the size bound (no pathological hash here)
        assert!(idx.shards.iter().all(|s| s.buckets.len() <= SHARD_MAX_KEYS));
    }

    #[test]
    fn clones_share_shards_and_writes_copy_only_touched_buckets() {
        let keys = 4 * SHARD_MAX_KEYS;
        let mut t = wide_table(keys);
        let idx = ConstraintIndex::build(&t, &["k".into()], &["v".into()]).unwrap();
        let total_shards = idx.shards.len();
        let snapshot = idx.clone();
        assert_eq!(snapshot.shared_shard_count(&idx), total_shards);
        assert_eq!(snapshot.shared_bucket_count(&idx), keys);

        // a single-key insert copies the handles of exactly one shard and
        // the contents of exactly one bucket
        let mut next = idx.clone();
        let id = t.insert(vec![Value::Int(0), Value::Int(99)]).unwrap();
        next.add_row(t.row(id).unwrap());
        assert_eq!(snapshot.shared_shard_count(&next), total_shards - 1);
        assert_eq!(snapshot.shared_bucket_count(&next), keys - 1);
        let copied = next.copy_stats() - idx.copy_stats();
        assert_eq!((copied.shards_cloned, copied.buckets_cloned), (1, 1));
        // ... and the snapshot still reads the old bucket
        assert_eq!(snapshot.fetch(&[Value::Int(0)]).len(), 2);
        assert_eq!(next.fetch(&[Value::Int(0)]).len(), 3);
        assert_eq!(next.total_entries(), snapshot.total_entries() + 1);

        // a batched delete copies only the buckets of the removed rows
        let mut pruned = next.clone();
        let removed = t.delete_where(|r| r[0] == Value::Int(0));
        pruned.remove_rows(removed.iter().map(|(_, r)| r));
        assert!(pruned.fetch(&[Value::Int(0)]).is_empty());
        assert_eq!(snapshot.shared_shard_count(&pruned), total_shards - 1);
        assert_eq!(snapshot.shared_bucket_count(&pruned), keys - 1);
        let copied = pruned.copy_stats() - next.copy_stats();
        assert_eq!((copied.shards_cloned, copied.buckets_cloned), (1, 1));
        assert_eq!(pruned.distinct_keys(), keys - 1);
        // incrementally maintained result equals a rebuild from scratch
        pruned.check_against_table(&t).unwrap();
        assert_eq!(pruned.observed_max_cardinality(), 2);
    }
}
