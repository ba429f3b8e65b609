//! The query graph: a normalized view of a bound SPJ/aggregate query that the
//! BE Checker and BE Plan Generator reason over.
//!
//! An atom is one occurrence of a relation in the FROM clause.  The graph
//! records, per atom, which attributes the query *needs* (output columns,
//! predicate columns, join columns, aggregate inputs and group-by keys),
//! which attributes are bound to constants, and the equality edges between
//! attributes of different atoms.  Coverage checking is a fixpoint over this
//! graph; plan generation replays the fixpoint as a chain of `fetch`
//! operations.

use beas_common::{BeasError, Result, TableSchema, Value};
use beas_engine::split_bound_conjuncts;
use beas_sql::ast::BinaryOperator;
use beas_sql::{BoundExpr, BoundQuery};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A term of the query graph: column `column` of atom `atom`.
pub type Term = (usize, String);

/// One relation occurrence in the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Index of this atom (position in the FROM clause).
    pub idx: usize,
    /// Alias used in the query.
    pub alias: String,
    /// Base-table name.
    pub table: String,
    /// Base-table schema, shared with the bound query's table factor.
    pub schema: Arc<TableSchema>,
    /// Attributes of this atom the query needs.
    pub needed: BTreeSet<String>,
}

/// A constant the query binds an attribute to.
#[derive(Debug, Clone, PartialEq)]
pub struct Constant {
    /// The value.
    pub value: Value,
    /// The parameter slot the value fills, when the statement was prepared
    /// as a query shape ([`BoundExpr::Param`]).
    pub slot: Option<usize>,
}

impl Constant {
    /// The constant as an expression leaf, still knowing its slot.
    pub fn to_expr(&self) -> BoundExpr {
        match self.slot {
            Some(slot) => BoundExpr::Param {
                slot,
                value: self.value.clone(),
            },
            None => BoundExpr::Literal(self.value.clone()),
        }
    }

    fn of(expr: &BoundExpr) -> Option<Constant> {
        expr.as_constant().map(|(value, slot)| Constant {
            value: value.clone(),
            slot,
        })
    }

    /// The constant a statement with parameter vector `values` has here.
    pub(crate) fn bind_params(&self, values: &[Value]) -> Constant {
        Constant {
            value: match self.slot {
                Some(slot) => values[slot].clone(),
                None => self.value.clone(),
            },
            slot: None,
        }
    }
}

/// A single-atom predicate (selection) retained for execution on fetched
/// partial tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomFilter {
    /// The atom the predicate restricts.
    pub atom: usize,
    /// The predicate, bound over the query's flat input schema.
    pub predicate: BoundExpr,
}

/// The normalized query graph.
///
/// Atoms and equality edges hold no literal of the statement, so the graphs
/// of all statements of one query shape share them.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGraph {
    /// Relation occurrences.
    pub atoms: Arc<[Atom]>,
    /// Attributes bound to a single constant (`col = 'x'`): the first such
    /// conjunct per attribute.
    pub constants: BTreeMap<Term, Constant>,
    /// Attributes bound to a small list of constants (`col IN (...)`): the
    /// first such conjunct per attribute.
    pub in_lists: BTreeMap<Term, Vec<Constant>>,
    /// Equality edges between attributes of *different* atoms.
    pub equalities: Arc<[(Term, Term)]>,
    /// Residual single-atom predicates (ranges, LIKE, `<>`, intra-atom
    /// equalities, a second constant or IN-list on one attribute, ...).
    pub filters: Vec<AtomFilter>,
    /// Predicates spanning several atoms that are not simple equalities;
    /// they are applied after all fetches and make the query harder to cover
    /// only in the sense that their columns must be fetched too.
    pub residual_predicates: Vec<BoundExpr>,
}

impl QueryGraph {
    /// Build the graph from a bound query.
    pub fn build(query: &BoundQuery) -> Result<QueryGraph> {
        if query.tables.is_empty() {
            return Err(BeasError::plan("query has no tables"));
        }
        let mut atoms: Vec<Atom> = query
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| Atom {
                idx: i,
                alias: t.alias.clone(),
                table: t.table.clone(),
                schema: Arc::clone(&t.schema),
                needed: BTreeSet::new(),
            })
            .collect();

        let term_of = |col: usize| -> Term {
            let (atom_idx, _) = atom_of_column(query, col);
            (atom_idx, query.input_schema.field(col).name.clone())
        };

        // Mark needed attributes from every part of the query that reads
        // base-table columns.
        let mark_needed = |expr: &BoundExpr, atoms: &mut Vec<Atom>| {
            for col in expr.referenced_columns() {
                let (a, name) = term_of(col);
                atoms[a].needed.insert(name);
            }
        };
        if let Some(f) = &query.filter {
            mark_needed(f, &mut atoms);
        }
        for g in &query.group_by {
            mark_needed(g, &mut atoms);
        }
        for a in &query.aggregates {
            if let Some(arg) = &a.arg {
                mark_needed(arg, &mut atoms);
            }
        }
        if !query.is_aggregate {
            for (e, _) in &query.output {
                mark_needed(e, &mut atoms);
            }
        }

        // Classify the WHERE conjuncts.
        let mut constants = BTreeMap::new();
        let mut in_lists = BTreeMap::new();
        let mut equalities = Vec::new();
        let mut filters = Vec::new();
        let mut residual_predicates = Vec::new();
        let conjuncts = match &query.filter {
            Some(f) => split_bound_conjuncts(f),
            None => Vec::new(),
        };
        for c in conjuncts {
            // An attribute keeps the first constant (IN-list) the query
            // binds it to; a further one cannot replace it — both must
            // hold — and is checked as a filter on the fetched tuples.
            let second = |term: &Term, predicate| AtomFilter {
                atom: term.0,
                predicate,
            };
            match classify(&c, query) {
                Classified::Constant(col, v) => match constants.entry(term_of(col)) {
                    Entry::Vacant(slot) => {
                        slot.insert(v);
                    }
                    Entry::Occupied(first) => filters.push(second(first.key(), c)),
                },
                Classified::InList(col, vs) => match in_lists.entry(term_of(col)) {
                    Entry::Vacant(slot) => {
                        slot.insert(vs);
                    }
                    Entry::Occupied(first) => filters.push(second(first.key(), c)),
                },
                Classified::Equality(a, b) => {
                    equalities.push((term_of(a), term_of(b)));
                }
                Classified::SingleAtom(atom) => {
                    filters.push(AtomFilter { atom, predicate: c });
                }
                Classified::Residual => residual_predicates.push(c),
            }
        }

        Ok(QueryGraph {
            atoms: atoms.into(),
            constants,
            in_lists,
            equalities: equalities.into(),
            filters,
            residual_predicates,
        })
    }

    /// Equivalence classes of terms under the equality edges; each class also
    /// records whether it contains a constant-bound term.
    pub fn equivalence_classes(&self) -> Vec<BTreeSet<Term>> {
        // union-find over terms appearing in equalities / constants / in-lists
        let mut classes: Vec<BTreeSet<Term>> = Vec::new();
        let find = |classes: &Vec<BTreeSet<Term>>, t: &Term| -> Option<usize> {
            classes.iter().position(|c| c.contains(t))
        };
        let add_term = |classes: &mut Vec<BTreeSet<Term>>, t: &Term| {
            if classes.iter().all(|c| !c.contains(t)) {
                let mut s = BTreeSet::new();
                s.insert(t.clone());
                classes.push(s);
            }
        };
        for (a, b) in self.equalities.iter() {
            add_term(&mut classes, a);
            add_term(&mut classes, b);
            let ia = find(&classes, a).expect("term added above");
            let ib = find(&classes, b).expect("term added above");
            if ia != ib {
                let merged: BTreeSet<Term> = classes[ia].union(&classes[ib]).cloned().collect();
                let (hi, lo) = if ia > ib { (ia, ib) } else { (ib, ia) };
                classes.remove(hi);
                classes.remove(lo);
                classes.push(merged);
            }
        }
        for t in self.constants.keys().chain(self.in_lists.keys()) {
            add_term(&mut classes, t);
        }
        classes
    }

    /// The constant a term is (transitively) bound to, if any.
    pub fn constant_for(&self, term: &Term, classes: &[BTreeSet<Term>]) -> Option<&Constant> {
        if let Some(v) = self.constants.get(term) {
            return Some(v);
        }
        let class = classes.iter().find(|c| c.contains(term))?;
        class.iter().find_map(|t| self.constants.get(t))
    }

    /// The graph of the statement that has this graph's shape and the
    /// parameter vector `values`: constants and predicates are bound to
    /// them, everything else is shared.
    pub(crate) fn bind_params(&self, values: &[Value]) -> QueryGraph {
        let bind = |e: &BoundExpr| e.bind_params(values);
        QueryGraph {
            atoms: Arc::clone(&self.atoms),
            constants: self
                .constants
                .iter()
                .map(|(term, c)| (term.clone(), c.bind_params(values)))
                .collect(),
            in_lists: self
                .in_lists
                .iter()
                .map(|(term, cs)| {
                    let cs = cs.iter().map(|c| c.bind_params(values)).collect();
                    (term.clone(), cs)
                })
                .collect(),
            equalities: Arc::clone(&self.equalities),
            filters: self
                .filters
                .iter()
                .map(|f| AtomFilter {
                    atom: f.atom,
                    predicate: bind(&f.predicate),
                })
                .collect(),
            residual_predicates: self.residual_predicates.iter().map(bind).collect(),
        }
    }

    /// All columns of atom `idx` that the query needs, in schema order.
    pub fn needed_columns(&self, idx: usize) -> Vec<String> {
        let atom = &self.atoms[idx];
        atom.schema
            .column_names()
            .into_iter()
            .filter(|c| atom.needed.contains(c))
            .collect()
    }
}

/// Which atom a flat input-schema column belongs to, plus its table name.
pub fn atom_of_column(query: &BoundQuery, col: usize) -> (usize, &str) {
    let idx = query
        .tables
        .iter()
        .enumerate()
        .rev()
        .find(|(_, t)| col >= t.offset)
        .map(|(i, _)| i)
        .unwrap_or(0);
    (idx, query.tables[idx].table.as_str())
}

enum Classified {
    Constant(usize, Constant),
    InList(usize, Vec<Constant>),
    Equality(usize, usize),
    SingleAtom(usize),
    Residual,
}

fn classify(conjunct: &BoundExpr, query: &BoundQuery) -> Classified {
    // column = constant (either side)
    if let BoundExpr::Binary {
        op: BinaryOperator::Eq,
        left,
        right,
    } = conjunct
    {
        let sides = (left.as_ref(), right.as_ref());
        if let (BoundExpr::Column(i), other) | (other, BoundExpr::Column(i)) = sides {
            if let Some(constant) = Constant::of(other) {
                return Classified::Constant(*i, constant);
            }
        }
        // column = column across two atoms
        if let (BoundExpr::Column(a), BoundExpr::Column(b)) = sides {
            let (ta, _) = atom_of_column(query, *a);
            let (tb, _) = atom_of_column(query, *b);
            if ta != tb {
                return Classified::Equality(*a, *b);
            }
        }
    }
    // column IN (constants)
    if let BoundExpr::InList {
        expr,
        list,
        negated: false,
    } = conjunct
    {
        if let BoundExpr::Column(i) = expr.as_ref() {
            let values: Option<Vec<Constant>> = list.iter().map(Constant::of).collect();
            if let Some(values) = values {
                if !values.is_empty() {
                    return Classified::InList(*i, values);
                }
            }
        }
    }
    // single-atom predicate?
    let cols = conjunct.referenced_columns();
    let atoms: BTreeSet<usize> = cols.iter().map(|&c| atom_of_column(query, c).0).collect();
    if atoms.len() == 1 {
        return Classified::SingleAtom(*atoms.iter().next().unwrap());
    }
    Classified::Residual
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::{ColumnDef, DataType};
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

    fn example2_sql() -> &'static str {
        "select call.region from call, package, business \
         where business.type = 't0' and business.region = 'r0' and \
         business.pnum = call.pnum and call.date = '2016-07-04' and \
         call.pnum = package.pnum and package.year = 2016 \
         and package.start_month <= 7 and package.end_month >= 7 and package.pid = 3"
    }

    fn graph(sql: &str) -> QueryGraph {
        let db = db();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        QueryGraph::build(&bound).unwrap()
    }

    #[test]
    fn builds_example2_graph() {
        let g = graph(example2_sql());
        assert_eq!(g.atoms.len(), 3);
        assert_eq!(g.atoms[0].table, "call");
        // needed attributes
        assert!(g.atoms[0].needed.contains("region"));
        assert!(g.atoms[0].needed.contains("pnum"));
        assert!(g.atoms[0].needed.contains("date"));
        assert!(!g.atoms[0].needed.contains("recnum"));
        assert!(g.atoms[1].needed.contains("start_month"));
        // constants: business.type, business.region, call.date, package.year, package.pid
        assert_eq!(g.constants.len(), 5);
        assert!(g.constants.contains_key(&(2, "type".to_string())));
        assert!(g.constants.contains_key(&(0, "date".to_string())));
        // equalities: business.pnum = call.pnum, call.pnum = package.pnum
        assert_eq!(g.equalities.len(), 2);
        // filters: start_month <= 7, end_month >= 7
        assert_eq!(g.filters.len(), 2);
        assert!(g.filters.iter().all(|f| f.atom == 1));
        assert!(g.residual_predicates.is_empty());
    }

    #[test]
    fn equivalence_classes_merge_join_chains() {
        let g = graph(example2_sql());
        let classes = g.equivalence_classes();
        // one class holds {business.pnum, call.pnum, package.pnum}
        let pnum_class = classes
            .iter()
            .find(|c| c.contains(&(0, "pnum".to_string())))
            .unwrap();
        assert_eq!(pnum_class.len(), 3);
        // constants have singleton classes unless they join
        assert!(classes.iter().any(|c| c.contains(&(0, "date".to_string()))));
        // constant lookup propagates through classes
        let v = g.constant_for(&(2, "type".to_string()), &classes);
        assert_eq!(v.map(|c| &c.value), Some(&Value::str("t0")));
        assert_eq!(g.constant_for(&(0, "pnum".to_string()), &classes), None);
    }

    #[test]
    fn needed_columns_in_schema_order() {
        let g = graph(example2_sql());
        assert_eq!(g.needed_columns(0), vec!["pnum", "date", "region"]);
        assert_eq!(
            g.needed_columns(1),
            vec!["pnum", "pid", "start_month", "end_month", "year"]
        );
    }

    #[test]
    fn in_list_and_residual_classification() {
        let g = graph(
            "select c.region from call c, business b \
             where c.pnum = b.pnum and b.type in ('bank', 'hospital') \
             and c.region <> b.region and c.date = '2016-07-04'",
        );
        assert_eq!(g.in_lists.len(), 1);
        assert!(g.in_lists.contains_key(&(1, "type".to_string())));
        // c.region <> b.region spans two atoms and is not an equality
        assert_eq!(g.residual_predicates.len(), 1);
        // needed attributes include both regions
        assert!(g.atoms[0].needed.contains("region"));
        assert!(g.atoms[1].needed.contains("region"));
    }

    #[test]
    fn aggregate_query_marks_agg_inputs_needed() {
        let g = graph(
            "select region, count(distinct recnum) from call where date = '2016-07-04' group by region",
        );
        assert!(g.atoms[0].needed.contains("recnum"));
        assert!(g.atoms[0].needed.contains("region"));
        assert!(g.atoms[0].needed.contains("date"));
    }

    #[test]
    fn intra_atom_equality_is_a_filter() {
        let g = graph("select region from call where pnum = recnum and date = '2016-07-04'");
        assert_eq!(g.filters.len(), 1);
        assert_eq!(g.equalities.len(), 0);
    }

    #[test]
    fn a_second_constant_or_in_list_on_one_attribute_stays_a_filter() {
        // Both conjuncts must hold; letting the later one replace the earlier
        // answered `pnum = 'b'` alone.
        let g = graph(
            "select region from call where pnum = 'a' and date = '2016-07-04' and pnum = 'b' \
             and recnum in ('x') and recnum in ('y', 'z')",
        );
        assert_eq!(g.constants[&(0, "pnum".to_string())].value, Value::str("a"));
        let recnums = &g.in_lists[&(0, "recnum".to_string())];
        assert_eq!(recnums.len(), 1);
        assert_eq!(recnums[0].value, Value::str("x"));
        let kept: Vec<String> = g.filters.iter().map(|f| f.predicate.to_string()).collect();
        assert_eq!(kept, vec!["(#0 = 'b')", "(#1 IN ('y', 'z'))"]);
        assert!(g.filters.iter().all(|f| f.atom == 0));
    }

    #[test]
    fn constants_of_a_shape_keep_their_slot_until_bound() {
        let db = db();
        let values = vec![Value::str("b1"), Value::str("x"), Value::str("y")];
        let stmt =
            parse_select("select region from call where pnum = ?s and recnum in (?s, ?s)").unwrap();
        let bound = Binder::new(&db).with_params(&values).bind(&stmt).unwrap();
        let template = QueryGraph::build(&bound).unwrap();
        assert_eq!(template.constants[&(0, "pnum".to_string())].slot, Some(0));
        let slots: Vec<_> = template.in_lists[&(0, "recnum".to_string())]
            .iter()
            .map(|c| c.slot)
            .collect();
        assert_eq!(slots, vec![Some(1), Some(2)]);
        // bound to another statement's values it is that statement's graph
        let other = vec![Value::str("b2"), Value::str("p"), Value::str("q")];
        assert_eq!(
            template.bind_params(&other),
            graph("select region from call where pnum = 'b2' and recnum in ('p', 'q')")
        );
    }
}
