//! The BE Checker: decides whether a query is *covered* by an access schema.
//!
//! Bounded evaluability is undecidable for full relational algebra, but the
//! Feasibility Theorem gives an effective syntax: a PTIME-checkable class of
//! *covered* queries that captures boundedly evaluable queries up to
//! equivalent rewriting.  The check implemented here is this fixpoint:
//!
//! * terms equated to constants are initially **accessible**: their value
//!   can key a lookup;
//! * a constraint `R(X → Y, N)` *fires* on an atom of `R` once all of that
//!   atom's `X` attributes are accessible; it **fetches** the atom's `X` and
//!   `Y` attributes, and makes them (and everything equated to them)
//!   accessible;
//! * the query is covered when every attribute it needs has been fetched on
//!   every atom.  Accessible is not enough: `call_type = 'x'` makes
//!   `call_type` accessible, but unless some fired constraint retrieves the
//!   attribute nothing can check the predicate against the data.
//!
//! For aggregate queries the checker additionally requires the aggregates to
//! be *distinct-safe* (`COUNT(DISTINCT ..)`, `MIN`, `MAX`): access-constraint
//! indices return distinct partial tuples, so bag-sensitive aggregates
//! (`SUM`, `AVG`, bare `COUNT`) cannot be answered exactly from them.  Such
//! queries fall back to partially bounded evaluation (§5.3).

use crate::graph::{QueryGraph, Term};
use beas_access::{AccessConstraint, AccessSchema};
use beas_sql::{AggregateFunction, BoundQuery};
use std::collections::BTreeSet;
use std::fmt;

/// One application of an access constraint during the fixpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchStep {
    /// The atom the constraint fires on.
    pub atom: usize,
    /// The constraint.
    pub constraint: AccessConstraint,
}

/// The outcome of the coverage check.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageResult {
    /// Whether the query is covered (and hence boundedly evaluable under the
    /// effective syntax).
    pub covered: bool,
    /// The constraint applications, in firing order.  For covered queries
    /// this is the skeleton of the bounded plan.
    pub fetch_sequence: Vec<FetchStep>,
    /// Atoms whose needed attributes all became accessible.
    pub covered_atoms: BTreeSet<usize>,
    /// `(atom, attribute)` pairs the query needs but that never became
    /// accessible (empty iff all atoms covered).
    pub missing: Vec<Term>,
    /// Human-readable reasons the query is not covered (empty when covered).
    pub reasons: Vec<String>,
}

impl CoverageResult {
    /// Identifiers of the distinct constraints used.
    pub fn constraints_used(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .fetch_sequence
            .iter()
            .map(|s| s.constraint.id())
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }
}

impl fmt::Display for CoverageResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.covered {
            writeln!(
                f,
                "covered: yes ({} fetch steps)",
                self.fetch_sequence.len()
            )?;
        } else {
            writeln!(f, "covered: no")?;
            for r in &self.reasons {
                writeln!(f, "  - {r}")?;
            }
        }
        for s in &self.fetch_sequence {
            writeln!(f, "  fetch atom #{} via {}", s.atom, s.constraint)?;
        }
        Ok(())
    }
}

/// The BE Checker.
pub struct Checker<'a> {
    schema: &'a AccessSchema,
}

impl<'a> Checker<'a> {
    /// Create a checker over an access schema.
    pub fn new(schema: &'a AccessSchema) -> Self {
        Checker { schema }
    }

    /// Check coverage of a bound query.
    pub fn check(&self, query: &BoundQuery, graph: &QueryGraph) -> CoverageResult {
        let classes = graph.equivalence_classes();
        let mut reasons = Vec::new();

        // Aggregate safety under distinct (set) semantics.
        if query.is_aggregate {
            for agg in &query.aggregates {
                let safe = matches!(agg.func, AggregateFunction::Min | AggregateFunction::Max)
                    || (agg.func == AggregateFunction::Count && agg.distinct);
                if !safe {
                    reasons.push(format!(
                        "aggregate {} is not exact over distinct partial tuples; \
                         use COUNT(DISTINCT ..)/MIN/MAX or fall back to the DBMS",
                        agg.display
                    ));
                }
            }
        }

        // accessible terms, tracked per (atom, attribute)
        let mut accessible: BTreeSet<Term> = BTreeSet::new();
        let add_with_class = |t: Term, accessible: &mut BTreeSet<Term>| {
            if let Some(class) = classes.iter().find(|c| c.contains(&t)) {
                for member in class {
                    accessible.insert(member.clone());
                }
            }
            accessible.insert(t);
        };
        for t in graph.constants.keys().chain(graph.in_lists.keys()) {
            add_with_class(t.clone(), &mut accessible);
        }

        // Fixpoint: fire applicable constraints until nothing new is learned.
        // `fetched` holds what the fired constraints retrieve, atom by atom:
        // a constant or an equated attribute makes a term *accessible* — its
        // value can key a lookup — but only a fetch on the term's own atom
        // retrieves it, and only a retrieved attribute can be checked.
        let mut fetch_sequence: Vec<FetchStep> = Vec::new();
        let mut fetched: BTreeSet<Term> = BTreeSet::new();
        let mut fetched_atoms: BTreeSet<usize> = BTreeSet::new();
        loop {
            let mut progressed = false;
            for atom in graph.atoms.iter() {
                for constraint in self.schema.for_table(&atom.table) {
                    // skip constraints referencing columns the relation lacks
                    if constraint.validate_against(&atom.schema).is_err() {
                        continue;
                    }
                    let key_available = constraint
                        .x
                        .iter()
                        .all(|x| accessible.contains(&(atom.idx, x.clone())));
                    if !key_available {
                        continue;
                    }
                    // would this application retrieve anything new?
                    let retrieved = || constraint.x.iter().chain(&constraint.y);
                    if retrieved().all(|c| fetched.contains(&(atom.idx, c.clone()))) {
                        continue;
                    }
                    for c in retrieved() {
                        fetched.insert((atom.idx, c.clone()));
                        add_with_class((atom.idx, c.clone()), &mut accessible);
                    }
                    fetch_sequence.push(FetchStep {
                        atom: atom.idx,
                        constraint: constraint.clone(),
                    });
                    fetched_atoms.insert(atom.idx);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        // Which atoms ended up fully covered?
        let mut covered_atoms = BTreeSet::new();
        let mut missing = Vec::new();
        for atom in graph.atoms.iter() {
            let mut atom_missing: Vec<Term> = atom
                .needed
                .iter()
                .filter(|c| !fetched.contains(&(atom.idx, (*c).clone())))
                .map(|c| (atom.idx, c.clone()))
                .collect();
            // Even when the query needs no attribute of the atom, the atom
            // itself must be reached through some fetch: otherwise the plan
            // has no bounded way to verify which tuples exist in D.
            if atom_missing.is_empty() && fetched_atoms.contains(&atom.idx) {
                covered_atoms.insert(atom.idx);
            } else if atom_missing.is_empty() {
                reasons.push(format!(
                    "relation {} ({}) is never accessed through an access constraint",
                    atom.table, atom.alias
                ));
            }
            missing.append(&mut atom_missing);
        }
        for (atom_idx, col) in &missing {
            let atom = &graph.atoms[*atom_idx];
            reasons.push(format!(
                "attribute {}.{} (relation {}) cannot be fetched under the access schema",
                atom.alias, col, atom.table
            ));
        }

        let covered = reasons.is_empty() && covered_atoms.len() == graph.atoms.len();
        CoverageResult {
            covered,
            fetch_sequence,
            covered_atoms,
            missing,
            reasons,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::QueryGraph;
    use beas_common::{ColumnDef, DataType, TableSchema};
    use beas_sql::{parse_select, Binder};
    use beas_storage::Database;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
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
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "package",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("pid", DataType::Int),
                    ColumnDef::new("start_month", DataType::Int),
                    ColumnDef::new("end_month", DataType::Int),
                    ColumnDef::new("year", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "business",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("type", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    /// The access schema A0 of Example 1.
    fn a0() -> AccessSchema {
        AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
            AccessConstraint::new(
                "package",
                &["pnum", "year"],
                &["pid", "start_month", "end_month"],
                12,
            )
            .unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ])
    }

    fn check(sql: &str, schema: &AccessSchema) -> (CoverageResult, BoundQuery) {
        let db = db();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        (Checker::new(schema).check(&bound, &graph), bound)
    }

    fn example2_sql() -> &'static str {
        "select call.region from call, package, business \
         where business.type = 't0' and business.region = 'r0' and \
         business.pnum = call.pnum and call.date = '2016-07-04' and \
         call.pnum = package.pnum and package.year = 2016 \
         and package.start_month <= 7 and package.end_month >= 7 and package.pid = 3"
    }

    #[test]
    fn example2_is_covered_by_a0() {
        let (result, _) = check(example2_sql(), &a0());
        assert!(result.covered, "reasons: {:?}", result.reasons);
        assert_eq!(result.fetch_sequence.len(), 3);
        assert_eq!(result.covered_atoms.len(), 3);
        assert_eq!(result.constraints_used().len(), 3);
        // the firing order must respect data dependencies:
        // business (from constants) before call/package (which need pnum)
        let order: Vec<&str> = result
            .fetch_sequence
            .iter()
            .map(|s| s.constraint.table.as_str())
            .collect();
        assert_eq!(order[0], "business");
        assert!(result.to_string().contains("covered: yes"));
    }

    #[test]
    fn uncovered_without_business_constraint() {
        let mut schema = a0();
        let removed: Vec<String> = schema
            .constraints()
            .iter()
            .filter(|c| c.table == "business")
            .map(|c| c.id())
            .collect();
        for id in removed {
            schema.remove(&id);
        }
        let (result, _) = check(example2_sql(), &schema);
        assert!(!result.covered);
        assert!(!result.reasons.is_empty());
        assert!(result.to_string().contains("covered: no"));
        // business.pnum is needed but cannot be fetched
        assert!(result.missing.iter().any(|(_, c)| c == "pnum"));
    }

    #[test]
    fn single_table_query_with_key_constants_is_covered() {
        let (result, _) = check(
            "select recnum, region from call where pnum = '123' and date = '2016-07-04'",
            &a0(),
        );
        assert!(result.covered, "reasons: {:?}", result.reasons);
        assert_eq!(result.fetch_sequence.len(), 1);
    }

    #[test]
    fn missing_key_attribute_is_not_covered() {
        // pnum alone is not a key of any constraint on call (needs date too)
        let (result, _) = check("select recnum from call where pnum = '123'", &a0());
        assert!(!result.covered);
    }

    #[test]
    fn unconstrained_output_attribute_is_not_covered() {
        // duration-like attribute: recnum is in Y, but asking for a column not
        // in any constraint's X∪Y leaves it unfetchable
        let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "call",
            &["pnum", "date"],
            &["recnum"],
            500,
        )
        .unwrap()]);
        let (result, _) = check(
            "select region from call where pnum = '1' and date = '2016-07-04'",
            &schema,
        );
        assert!(!result.covered);
        assert!(result.missing.contains(&(0, "region".to_string())));
    }

    #[test]
    fn distinct_safe_aggregates_are_covered() {
        let (result, _) = check(
            "select region, count(distinct recnum) from call \
             where pnum = '1' and date = '2016-07-04' group by region",
            &a0(),
        );
        assert!(result.covered, "reasons: {:?}", result.reasons);
        let (result_minmax, _) = check(
            "select min(recnum), max(recnum) from call where pnum = '1' and date = '2016-07-04'",
            &a0(),
        );
        assert!(result_minmax.covered);
    }

    #[test]
    fn bag_sensitive_aggregates_are_rejected() {
        let (result, _) = check(
            "select count(*) from call where pnum = '1' and date = '2016-07-04'",
            &a0(),
        );
        assert!(!result.covered);
        assert!(result.reasons[0].contains("COUNT"));
        let (result2, _) = check(
            "select region, count(distinct recnum), count(*) from call \
             where pnum = '1' and date = '2016-07-04' group by region",
            &a0(),
        );
        assert!(!result2.covered);
    }

    #[test]
    fn partial_coverage_identifies_covered_atoms() {
        // remove the call constraint: business and package remain coverable,
        // call does not.
        let mut schema = a0();
        let call_ids: Vec<String> = schema
            .constraints()
            .iter()
            .filter(|c| c.table == "call")
            .map(|c| c.id())
            .collect();
        for id in call_ids {
            schema.remove(&id);
        }
        let (result, _) = check(example2_sql(), &schema);
        assert!(!result.covered);
        assert!(result.covered_atoms.contains(&2)); // business
        assert!(result.covered_atoms.contains(&1)); // package
        assert!(!result.covered_atoms.contains(&0)); // call
    }

    #[test]
    fn empty_access_schema_covers_nothing() {
        let schema = AccessSchema::new();
        let (result, _) = check(example2_sql(), &schema);
        assert!(!result.covered);
        assert!(result.fetch_sequence.is_empty());
        assert!(result.covered_atoms.is_empty());
    }

    #[test]
    fn a_constant_makes_an_attribute_a_key_not_a_fetched_attribute() {
        // `region = 'east'` gives region a value to key lookups with, but no
        // constraint retrieves call.region here, so nothing could check the
        // predicate: a plan that fetched (pnum, date -> recnum) alone would
        // answer as if it were not there.
        let narrow = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "call",
            &["pnum", "date"],
            &["recnum"],
            500,
        )
        .unwrap()]);
        let sql = "select recnum from call \
                   where pnum = '1' and date = '2016-07-04' and region = 'east'";
        let (result, _) = check(sql, &narrow);
        assert!(!result.covered);
        assert_eq!(result.missing, vec![(0, "region".to_string())]);
        // with region among the fetched attributes the predicate is a
        // post-filter, and a constraint whose every attribute is bound to a
        // constant still has to fire for that
        let (result, _) = check(
            "select recnum from call where pnum = '1' and date = '2016-07-04' \
             and region = 'east' and recnum = 'x'",
            &a0(),
        );
        assert!(result.covered, "{result}");
        assert_eq!(result.fetch_sequence.len(), 1);
    }
}
