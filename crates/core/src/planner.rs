//! The BE Plan Generator: turns a successful coverage check into a
//! [`BoundedPlan`] with per-fetch bound annotations.

use crate::checker::CoverageResult;
use crate::graph::{Constant, QueryGraph, Term};
use crate::plan::{BoundedPlan, KeyParam, KeySource, PlannedFetch, ResolvedFetch};
use beas_access::AccessConstraint;
use beas_common::{BeasError, Field, Result, Schema, TableSchema};
use beas_engine::{finalize_plan, LogicalPlan};
use beas_sql::ast::BinaryOperator;
use beas_sql::{BoundExpr, BoundQuery};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Generate a bounded plan from a coverage result.
///
/// Fails if the coverage result is not covered — callers should consult the
/// checker first (or use partially bounded planning, see
/// [`crate::partial`]).
pub fn generate_bounded_plan(
    query: &BoundQuery,
    graph: &QueryGraph,
    coverage: &CoverageResult,
) -> Result<BoundedPlan> {
    if !coverage.covered {
        return Err(BeasError::not_bounded(format!(
            "query is not covered by the access schema: {}",
            coverage.reasons.join("; ")
        )));
    }
    generate_plan_for_steps(query, graph, coverage, None)
}

/// Generate a plan for a subset of atoms (used by partially bounded
/// evaluation); `None` means all fetch steps.
pub fn generate_plan_for_steps(
    query: &BoundQuery,
    graph: &QueryGraph,
    coverage: &CoverageResult,
    only_atoms: Option<&BTreeSet<usize>>,
) -> Result<BoundedPlan> {
    let classes = graph.equivalence_classes();
    let mut ctx_columns: BTreeSet<Term> = BTreeSet::new();
    // Per equivalence class: its first member fetched into the context, and
    // whether that member is known to equal a constant.  Every later member
    // is tied to it, by its lookup key or by a post-filter.
    let mut anchors: Vec<Option<(Term, bool)>> = vec![None; classes.len()];
    let mut assigned_filters = vec![false; graph.filters.len()];
    let mut fetches = Vec::new();
    // The context relation's schema as the steps planned so far leave it.
    let mut schema = Schema::empty();

    // The seed bound accounts for IN-list expansions used as keys.
    let seed_bound: u64 = graph
        .in_lists
        .values()
        .map(|v| v.len() as u64)
        .product::<u64>()
        .max(1);
    let mut ctx_bound: u64 = seed_bound;
    let mut total_bound: u64 = 0;

    // Candidate steps from the checker, optionally restricted to a subset of
    // atoms (partially bounded planning).
    let mut remaining: Vec<&crate::checker::FetchStep> = coverage
        .fetch_sequence
        .iter()
        .filter(|s| only_atoms.map(|a| a.contains(&s.atom)).unwrap_or(true))
        .collect();

    // Greedy ordering: among the steps whose keys are already available, fire
    // the one with the smallest cardinality bound first.  This is what turns
    // the checker's arbitrary firing order into the plan of Example 2
    // (business ψ3, then package ψ2, then call ψ1) and minimises the deduced
    // bound.
    while !remaining.is_empty() {
        let ready: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.constraint.x.iter().all(|x| {
                    resolve_key(graph, &classes, &ctx_columns, &(s.atom, x.clone())).is_ok()
                })
            })
            .map(|(i, _)| i)
            .collect();
        let pick = match ready.iter().min_by_key(|&&i| remaining[i].constraint.n) {
            Some(&i) => i,
            // Defensive: should not happen for checker-produced sequences,
            // but keep the given order rather than looping forever.
            None => 0,
        };
        let step = remaining.remove(pick);
        let atom = &graph.atoms[step.atom];
        // Resolve each key attribute of X to a source.
        let mut keys = Vec::new();
        let mut key_params = Vec::new();
        for (key, x) in step.constraint.x.iter().enumerate() {
            let term: Term = (step.atom, x.clone());
            // a key constant lifted from the statement remembers its slot
            let mut note_slot = |alternative: usize, c: &Constant| {
                if let Some(slot) = c.slot {
                    key_params.push(KeyParam {
                        key,
                        alternative,
                        slot,
                    });
                }
            };
            keys.push(match resolve_key(graph, &classes, &ctx_columns, &term)? {
                KeyOrigin::Constant(c) => {
                    note_slot(0, c);
                    KeySource::Constant(c.value.clone())
                }
                KeyOrigin::Constants(cs) => {
                    cs.iter().enumerate().for_each(|(i, c)| note_slot(i, c));
                    KeySource::Constants(cs.iter().map(|c| c.value.clone()).collect())
                }
                KeyOrigin::Ctx(member) => KeySource::Ctx(member.0, member.1.clone()),
            });
        }

        // Which predicates become checkable after this fetch?
        let mut post_filters = Vec::new();
        let fetched = || step.constraint.x.iter().chain(step.constraint.y.iter());
        // (a) equality/IN constraints on the newly fetched attributes.
        for col in fetched() {
            let term = (step.atom, col.clone());
            let global = global_index(query, step.atom, col)?;
            if let Some(c) = graph.constants.get(&term) {
                post_filters.push(BoundExpr::Binary {
                    op: BinaryOperator::Eq,
                    left: Box::new(BoundExpr::Column(global)),
                    right: Box::new(c.to_expr()),
                });
            }
            if let Some(cs) = graph.in_lists.get(&term) {
                post_filters.push(BoundExpr::InList {
                    expr: Box::new(BoundExpr::Column(global)),
                    list: cs.iter().map(Constant::to_expr).collect(),
                    negated: false,
                });
            }
        }

        // (b) the equalities the fetched attributes take part in.  A lookup
        // keyed by an equated context column enforces its equality; so do
        // two lookups keyed by the one constant their class has.  Anything
        // else — both ends keyed by constants of their own, an end keyed by
        // an IN-list, an end that is a fetched (`Y`) attribute — is only
        // true of some fetched combinations and is checked here, against
        // the class's first member in the context.
        for (position, col) in fetched().enumerate() {
            let term = (step.atom, col.clone());
            if ctx_columns.contains(&term) {
                continue;
            }
            let Some(class) = classes.iter().position(|c| c.contains(&term)) else {
                continue;
            };
            let key = keys.get(position);
            let pinned =
                graph.constants.contains_key(&term) || matches!(key, Some(KeySource::Constant(_)));
            let Some((anchor, anchor_pinned)) = &anchors[class] else {
                anchors[class] = Some((term, pinned));
                continue;
            };
            let by_lookup = matches!(
                key,
                Some(KeySource::Ctx(a, c)) if classes[class].contains(&(*a, c.clone()))
            );
            let one_constant = || {
                let owners = classes[class].iter();
                owners.filter(|t| graph.constants.contains_key(*t)).count() == 1
            };
            if by_lookup || (pinned && *anchor_pinned && one_constant()) {
                continue;
            }
            post_filters.push(BoundExpr::Binary {
                op: BinaryOperator::Eq,
                left: Box::new(BoundExpr::Column(global_index(query, step.atom, col)?)),
                right: Box::new(BoundExpr::Column(global_index(query, anchor.0, &anchor.1)?)),
            });
        }

        // Update the context columns.
        for col in fetched() {
            ctx_columns.insert((step.atom, col.clone()));
        }

        // (c) single-atom filters whose columns are all now in the context.
        for (i, f) in graph.filters.iter().enumerate() {
            if assigned_filters[i] {
                continue;
            }
            if in_context(query, &ctx_columns, &f.predicate) {
                post_filters.push(f.predicate.clone());
                assigned_filters[i] = true;
            }
        }

        // Bound deduction: |keys| ≤ ctx_bound, each key fetches ≤ N tuples.
        let fetch_bound = ctx_bound.saturating_mul(step.constraint.n);
        total_bound = total_bound.saturating_add(fetch_bound);
        ctx_bound = fetch_bound;

        // Resolve the step against the context it runs on — where its keys
        // are, what the context looks like afterwards, its predicates over
        // that — so that executing it looks nothing up by name.
        let key_positions = keys
            .iter()
            .map(|k| match k {
                KeySource::Ctx(atom, col) => {
                    let alias = &query.tables[*atom].alias;
                    let position = schema.index_of_origin(alias, col).ok_or_else(|| {
                        BeasError::plan(format!(
                            "internal error: context column {alias}.{col} is not \
                             fetched when the step keyed by it fires"
                        ))
                    })?;
                    Ok(Some(position))
                }
                KeySource::Constant(_) | KeySource::Constants(_) => Ok(None),
            })
            .collect::<Result<Vec<_>>>()?;
        schema = schema_after_fetch(
            &step.constraint,
            &atom.alias,
            &query.tables[step.atom].schema,
            &schema,
        )?;
        let post_filters = post_filters
            .iter()
            .map(|p| rewrite_to_ctx(p, query, graph, &classes, &schema))
            .collect::<Result<Vec<_>>>()?;

        fetches.push(PlannedFetch {
            atom: step.atom,
            alias: atom.alias.clone(),
            constraint: step.constraint.clone(),
            keys,
            key_params,
            bound: fetch_bound,
            post_filters,
            resolved: Arc::new(ResolvedFetch {
                index_id: step.constraint.id(),
                key_positions,
                schema: schema.clone(),
            }),
        });
    }

    // Residual predicates: only those whose columns are all in the context
    // (always true for fully covered queries; partially bounded plans keep
    // the rest for the DBMS residue).  Any single-atom filter not assignable
    // to a step (possible in partial plans) is deferred to this stage too.
    let unassigned = graph
        .filters
        .iter()
        .zip(&assigned_filters)
        .filter(|(_, assigned)| !**assigned)
        .map(|(f, _)| &f.predicate);
    let residual_predicates: Vec<BoundExpr> = graph
        .residual_predicates
        .iter()
        .chain(unassigned)
        .filter(|p| in_context(query, &ctx_columns, p))
        .cloned()
        .collect();

    let constraints_used = fetches
        .iter()
        .map(|f| f.resolved.index_id.as_str())
        .collect::<BTreeSet<_>>()
        .len();

    Ok(BoundedPlan {
        finalization: finalization_plan(query, graph, &classes, &schema, &residual_predicates),
        fetches,
        total_bound,
        constraints_used,
    })
}

/// Whether every column `predicate` reads has been fetched into the context.
fn in_context(query: &BoundQuery, ctx_columns: &BTreeSet<Term>, predicate: &BoundExpr) -> bool {
    predicate.referenced_columns().iter().all(|&c| {
        let (atom, _) = crate::graph::atom_of_column(query, c);
        ctx_columns.contains(&(atom, query.input_schema.field(c).name.clone()))
    })
}

/// The plan that turns the context the fetch steps leave behind (`schema`)
/// into the answer: one filter per residual predicate (applied in turn, as
/// the fetch steps apply their post-filters), then the nodes the baseline
/// planner stacks on its join tree — every expression rebound to the context
/// once, here.  Bounded answers have set semantics, so a non-aggregate
/// projection is always deduplicated.
fn finalization_plan(
    query: &BoundQuery,
    graph: &QueryGraph,
    classes: &[BTreeSet<Term>],
    schema: &Schema,
    residual_predicates: &[BoundExpr],
) -> Result<LogicalPlan> {
    let mut plan = LogicalPlan::Context {
        schema: schema.clone(),
    };
    for pred in residual_predicates {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: rewrite_to_ctx(pred, query, graph, classes, schema)?,
        };
    }
    let distinct = query.distinct || !query.is_aggregate;
    finalize_plan(query, plan, distinct, |e| {
        rewrite_to_ctx(e, query, graph, classes, schema)
    })
}

/// The context schema after a fetch through `constraint`: `schema` plus the
/// X and Y attributes of the fetched atom, qualified by its alias.
fn schema_after_fetch(
    constraint: &AccessConstraint,
    alias: &str,
    table: &TableSchema,
    schema: &Schema,
) -> Result<Schema> {
    let mut fields: Vec<Field> = schema.fields().to_vec();
    for col in constraint.x.iter().chain(constraint.y.iter()) {
        let dt = table.column(col).map(|c| c.data_type).ok_or_else(|| {
            BeasError::execution(format!(
                "constraint column {col:?} missing from table {:?}",
                table.name
            ))
        })?;
        fields.push(Field::base(alias, col.clone(), dt));
    }
    Ok(Schema::new(fields))
}

/// Rewrite an expression bound over the query's flat input schema so that it
/// reads from the context relation instead.  Columns not present in the
/// context are substituted through their equivalence class (an equated
/// context column or a constant); `classes` are the graph's.
fn rewrite_to_ctx(
    expr: &BoundExpr,
    query: &BoundQuery,
    graph: &QueryGraph,
    classes: &[BTreeSet<Term>],
    ctx_schema: &Schema,
) -> Result<BoundExpr> {
    let mut substitutions: HashMap<usize, BoundExpr> = HashMap::new();
    for col in expr.referenced_columns() {
        let field = query.input_schema.field(col);
        let alias = field.table.clone().ok_or_else(|| {
            BeasError::execution(format!("column {} has no table origin", field.name))
        })?;
        // direct hit
        if let Some(i) = ctx_schema.index_of_origin(&alias, &field.name) {
            substitutions.insert(col, BoundExpr::Column(i));
            continue;
        }
        // through the equivalence class
        let (atom_idx, _) = crate::graph::atom_of_column(query, col);
        let term = (atom_idx, field.name.clone());
        let mut found = None;
        if let Some(class) = classes.iter().find(|c| c.contains(&term)) {
            for member in class {
                let member_alias = &query.tables[member.0].alias;
                if let Some(i) = ctx_schema.index_of_origin(member_alias, &member.1) {
                    found = Some(BoundExpr::Column(i));
                    break;
                }
            }
            if found.is_none() {
                found = graph.constant_for(&term, classes).map(|c| c.to_expr());
            }
        } else if let Some(c) = graph.constants.get(&term) {
            found = Some(c.to_expr());
        }
        let replacement = found.ok_or_else(|| {
            BeasError::execution(format!(
                "column {}.{} is not available in the bounded context {ctx_schema}",
                alias, field.name
            ))
        })?;
        substitutions.insert(col, replacement);
    }
    Ok(expr.map_leaves(&|leaf| match leaf {
        BoundExpr::Column(i) => substitutions[i].clone(),
        constant => constant.clone(),
    }))
}

/// Where the value of a key attribute comes from, before it is copied
/// into a [`KeySource`].
enum KeyOrigin<'g> {
    Constant(&'g Constant),
    Constants(&'g [Constant]),
    Ctx(&'g Term),
}

fn resolve_key<'g>(
    graph: &'g QueryGraph,
    classes: &'g [BTreeSet<Term>],
    ctx_columns: &BTreeSet<Term>,
    term: &'g Term,
) -> Result<KeyOrigin<'g>> {
    // 1. a constant bound to the term (directly or through its class)
    if let Some(c) = graph.constant_for(term, classes) {
        return Ok(KeyOrigin::Constant(c));
    }
    // 2. an IN-list on the term or a class member
    if let Some(cs) = graph.in_lists.get(term) {
        return Ok(KeyOrigin::Constants(cs));
    }
    if let Some(class) = classes.iter().find(|c| c.contains(term)) {
        for member in class {
            if let Some(cs) = graph.in_lists.get(member) {
                return Ok(KeyOrigin::Constants(cs));
            }
        }
        // 3. a context column (the term itself or an equated attribute
        //    fetched by an earlier step)
        if ctx_columns.contains(term) {
            return Ok(KeyOrigin::Ctx(term));
        }
        for member in class {
            if ctx_columns.contains(member) {
                return Ok(KeyOrigin::Ctx(member));
            }
        }
    } else if ctx_columns.contains(term) {
        return Ok(KeyOrigin::Ctx(term));
    }
    Err(BeasError::plan(format!(
        "internal error: key attribute {}.{} is not available when its fetch fires",
        graph.atoms[term.0].alias, term.1
    )))
}

/// Flat input-schema index of `(atom, column)`.
pub fn global_index(query: &BoundQuery, atom: usize, column: &str) -> Result<usize> {
    let t = &query.tables[atom];
    t.schema
        .column_index(column)
        .map(|i| t.offset + i)
        .ok_or_else(|| {
            BeasError::plan(format!(
                "column {column:?} not found in table {:?}",
                t.table
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use beas_access::{AccessConstraint, AccessSchema};
    use beas_common::{ColumnDef, DataType, TableSchema, Value};
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

    fn plan_for(sql: &str, schema: &AccessSchema) -> Result<BoundedPlan> {
        let db = db();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(schema).check(&bound, &graph);
        generate_bounded_plan(&bound, &graph, &coverage)
    }

    fn example2_sql() -> &'static str {
        "select call.region from call, package, business \
         where business.type = 't0' and business.region = 'r0' and \
         business.pnum = call.pnum and call.date = '2016-07-04' and \
         call.pnum = package.pnum and package.year = 2016 \
         and package.start_month <= 7 and package.end_month >= 7 and package.pid = 3"
    }

    #[test]
    fn example2_plan_reproduces_paper_bounds() {
        // Example 2: 2000 business + 24000 package + 12,000,000 call tuples.
        let plan = plan_for(example2_sql(), &a0()).unwrap();
        assert_eq!(plan.fetches.len(), 3);
        assert_eq!(plan.constraints_used, 3);
        assert_eq!(plan.fetches[0].bound, 2000);
        assert_eq!(plan.fetches[1].bound, 24_000);
        assert_eq!(plan.fetches[2].bound, 12_000_000);
        assert_eq!(plan.total_bound, 2000 + 24_000 + 12_000_000);
        assert!(plan.fits_budget(13_000_000));
        assert!(!plan.fits_budget(1_000_000));
        let s = plan.explain();
        assert!(s.contains("≤ 2000 tuples"));
        assert!(s.contains("≤ 12000000 tuples"));
    }

    #[test]
    fn example2_key_sources_follow_the_paper_plan() {
        let plan = plan_for(example2_sql(), &a0()).unwrap();
        // step 1: business keyed by two constants
        assert!(matches!(plan.fetches[0].keys[0], KeySource::Constant(_)));
        assert!(matches!(plan.fetches[0].keys[1], KeySource::Constant(_)));
        // step 2: package keyed by (ctx pnum, constant 2016)
        assert!(matches!(plan.fetches[1].keys[0], KeySource::Ctx(_, _)));
        assert_eq!(
            plan.fetches[1].keys[1],
            KeySource::Constant(Value::Int(2016))
        );
        // step 3: call keyed by (ctx pnum, constant date)
        assert!(matches!(plan.fetches[2].keys[0], KeySource::Ctx(_, _)));
        assert!(matches!(plan.fetches[2].keys[1], KeySource::Constant(_)));
        // the pid / start / end selections are attached to the package step
        assert!(plan.fetches[1].post_filters.len() >= 3);
        // the finalization projects the distinct regions out of the context
        let finalization = plan.finalization.unwrap().explain();
        assert!(
            finalization.starts_with("Distinct\n  Project("),
            "{finalization}"
        );
        assert!(finalization.ends_with("Context\n"), "{finalization}");
    }

    #[test]
    fn in_list_keys_expand_the_bound() {
        let schema = a0();
        let plan = plan_for(
            "select recnum from call where pnum in ('a', 'b', 'c') and date = '2016-07-04'",
            &schema,
        )
        .unwrap();
        assert_eq!(plan.fetches.len(), 1);
        assert_eq!(plan.fetches[0].bound, 3 * 500);
        assert!(matches!(plan.fetches[0].keys[0], KeySource::Constants(ref v) if v.len() == 3));
    }

    #[test]
    fn uncovered_query_cannot_be_planned() {
        let err = plan_for("select recnum from call where pnum = 'x'", &a0()).unwrap_err();
        assert_eq!(err.kind(), "not_bounded");
    }

    #[test]
    fn partial_plan_for_subset_of_atoms() {
        // Without a call constraint, only business+package can be fetched.
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
        let db = db();
        let bound = Binder::new(&db)
            .bind(&parse_select(example2_sql()).unwrap())
            .unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(!coverage.covered);
        let plan =
            generate_plan_for_steps(&bound, &graph, &coverage, Some(&coverage.covered_atoms))
                .unwrap();
        assert_eq!(plan.fetches.len(), 2);
        assert!(plan.total_bound >= 2000);
        assert!(plan.fetches.iter().all(|f| f.atom != 0));
    }

    #[test]
    fn global_index_resolves_columns() {
        let db = db();
        let bound = Binder::new(&db)
            .bind(&parse_select(example2_sql()).unwrap())
            .unwrap();
        assert_eq!(global_index(&bound, 0, "pnum").unwrap(), 0);
        assert_eq!(global_index(&bound, 1, "pid").unwrap(), 5);
        assert!(global_index(&bound, 0, "nope").is_err());
    }

    /// The column-to-column equalities among a fetch step's post-filters.
    fn join_checks(plan: &BoundedPlan, step: usize) -> Vec<String> {
        plan.fetches[step]
            .post_filters
            .iter()
            .filter(|p| {
                matches!(p, BoundExpr::Binary { op: BinaryOperator::Eq, left, right }
                    if matches!((left.as_ref(), right.as_ref()),
                        (BoundExpr::Column(_), BoundExpr::Column(_))))
            })
            .map(|p| p.to_string())
            .collect()
    }

    #[test]
    fn an_equality_no_lookup_enforces_is_checked_after_the_fetch() {
        // Each end keyed by a constant of its own: the join is only true
        // when the two constants happen to be equal.
        let plan = plan_for(
            "select call.region from call, business \
             where business.type = 't0' and business.region = 'r0' \
             and business.pnum = call.pnum and business.pnum = 'a' \
             and call.pnum = 'b' and call.date = '2016-07-04'",
            &a0(),
        )
        .unwrap();
        // call (N = 500) is fetched first, by its own constant; business
        // then brings in the other end, and the comparison with it: context
        // position 6 (business.pnum, after call's four and business's two
        // key attributes) against position 0 (call.pnum)
        assert_eq!(plan.fetches[0].alias, "call");
        assert_eq!(
            plan.fetches[0].keys[0],
            KeySource::Constant(Value::str("b"))
        );
        assert_eq!(join_checks(&plan, 1), vec!["(#6 = #0)"]);

        // An end keyed by an IN-list takes every listed value for every
        // context row, whatever the row's own value is.
        let plan = plan_for(
            "select c.recnum, d.recnum from call c, call d \
             where c.pnum in ('a', 'b') and c.pnum = d.pnum \
             and c.date = '2016-07-04' and d.date = '2016-07-04'",
            &a0(),
        )
        .unwrap();
        assert!(matches!(plan.fetches[1].keys[0], KeySource::Constants(_)));
        assert_eq!(join_checks(&plan, 1).len(), 1);

        // Two fetched (`Y`) attributes equated with each other.
        let plan = plan_for(
            "select c.recnum from call c, call d \
             where c.pnum = 'a' and c.date = '2016-07-04' \
             and d.pnum = 'b' and d.date = '2016-07-05' and c.region = d.region",
            &a0(),
        )
        .unwrap();
        assert_eq!(join_checks(&plan, 1).len(), 1);
    }

    #[test]
    fn an_equality_the_lookups_enforce_costs_no_filter() {
        // Example 2: every join is a lookup keyed by the context.
        let plan = plan_for(example2_sql(), &a0()).unwrap();
        for step in 0..plan.fetches.len() {
            assert!(join_checks(&plan, step).is_empty(), "step {step}");
        }
        // Both ends keyed by the one constant their class has.
        let plan = plan_for(
            "select call.region from call, package \
             where call.pnum = 'b' and call.date = '2016-07-04' \
             and call.pnum = package.pnum and package.year = 2016",
            &a0(),
        )
        .unwrap();
        assert!(plan
            .fetches
            .iter()
            .all(|f| f.keys[0] == KeySource::Constant(Value::str("b"))));
        assert!(join_checks(&plan, 0).is_empty() && join_checks(&plan, 1).is_empty());
    }

    /// What the planner stored for each step against what the step-by-step
    /// derivation gives: the schema by [`schema_after_fetch`] from the
    /// schema before, the key positions by name lookup in it, and each of
    /// `expected[step]` — predicates over the query's input schema — by
    /// [`rewrite_to_ctx`].
    fn assert_resolved(sql: &str, expected: &[Vec<BoundExpr>]) {
        let db = db();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&a0()).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let classes = graph.equivalence_classes();
        assert_eq!(plan.fetches.len(), expected.len(), "{sql}");
        let mut schema = Schema::empty();
        for (i, fetch) in plan.fetches.iter().enumerate() {
            let positions: Vec<Option<usize>> = fetch
                .keys
                .iter()
                .map(|k| match k {
                    KeySource::Ctx(atom, col) => Some(
                        schema
                            .index_of_origin(&bound.tables[*atom].alias, col)
                            .unwrap(),
                    ),
                    _ => None,
                })
                .collect();
            assert_eq!(fetch.resolved.key_positions, positions, "{sql} step {i}");
            let table = &bound.tables[fetch.atom].schema;
            schema = schema_after_fetch(&fetch.constraint, &fetch.alias, table, &schema).unwrap();
            assert_eq!(fetch.resolved.schema, schema, "{sql} step {i}");
            let filters: Vec<BoundExpr> = expected[i]
                .iter()
                .map(|p| rewrite_to_ctx(p, &bound, &graph, &classes, &schema).unwrap())
                .collect();
            assert_eq!(fetch.post_filters, filters, "{sql} step {i}");
            assert_eq!(fetch.resolved.index_id, fetch.constraint.id());
        }
    }

    fn column(i: usize) -> Box<BoundExpr> {
        Box::new(BoundExpr::Column(i))
    }

    fn literal(v: Value) -> Box<BoundExpr> {
        Box::new(BoundExpr::Literal(v))
    }

    fn compare(op: BinaryOperator, left: Box<BoundExpr>, right: Box<BoundExpr>) -> BoundExpr {
        BoundExpr::Binary { op, left, right }
    }

    #[test]
    fn steps_are_resolved_as_the_step_by_step_derivation_resolves_them() {
        use BinaryOperator::{Eq, GtEq, LtEq};
        // input schema: call 0..4 (pnum recnum date region), package 4..9
        // (pnum pid start_month end_month year), business 9..12 (pnum type
        // region)

        // Example 2 (Q1): every predicate reads the atom its step fetches
        assert_resolved(
            example2_sql(),
            &[
                vec![
                    compare(Eq, column(10), literal(Value::str("t0"))),
                    compare(Eq, column(11), literal(Value::str("r0"))),
                ],
                vec![
                    compare(Eq, column(8), literal(Value::Int(2016))),
                    compare(Eq, column(5), literal(Value::Int(3))),
                    compare(LtEq, column(6), literal(Value::Int(7))),
                    compare(GtEq, column(7), literal(Value::Int(7))),
                ],
                vec![compare(Eq, column(2), literal(Value::str("2016-07-04")))],
            ],
        );

        // an IN-list as a key source is checked again after the fetch
        assert_resolved(
            "select recnum from call where pnum in ('a', 'b') and date = '2016-07-04'",
            &[vec![
                BoundExpr::InList {
                    expr: column(0),
                    list: vec![
                        BoundExpr::Literal(Value::str("a")),
                        BoundExpr::Literal(Value::str("b")),
                    ],
                    negated: false,
                },
                compare(Eq, column(2), literal(Value::str("2016-07-04"))),
            ]],
        );

        // an equality no lookup enforces ties the second step to the first
        assert_resolved(
            "select call.region from call, business \
             where business.type = 't0' and business.region = 'r0' \
             and business.pnum = call.pnum and business.pnum = 'a' \
             and call.pnum = 'b' and call.date = '2016-07-04'",
            &[
                vec![
                    compare(Eq, column(0), literal(Value::str("b"))),
                    compare(Eq, column(2), literal(Value::str("2016-07-04"))),
                ],
                vec![
                    compare(Eq, column(5), literal(Value::str("t0"))),
                    compare(Eq, column(6), literal(Value::str("r0"))),
                    compare(Eq, column(4), literal(Value::str("a"))),
                    compare(Eq, column(4), column(0)),
                ],
            ],
        );
    }

    #[test]
    fn key_constants_of_a_shape_remember_their_slots() {
        let db = db();
        let values = vec![
            Value::str("a"),
            Value::str("b"),
            Value::str("2016-07-04"),
            Value::str("r%"),
        ];
        let stmt = parse_select(
            "select recnum from call where pnum in (?s, ?s) and date = ?s and region like ?s",
        )
        .unwrap();
        let bound = Binder::new(&db).with_params(&values).bind(&stmt).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&a0()).check(&bound, &graph);
        let template = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let slots: Vec<(usize, usize, usize)> = template.fetches[0]
            .key_params
            .iter()
            .map(|p| (p.key, p.alternative, p.slot))
            .collect();
        assert_eq!(slots, vec![(0, 0, 0), (0, 1, 1), (1, 0, 2)]);
        // bound to another statement's values it is that statement's plan
        let other = vec![
            Value::str("x"),
            Value::str("y"),
            Value::str("2016-08-01"),
            Value::str("%st"),
        ];
        assert_eq!(
            template.bind_params(&other),
            plan_for(
                "select recnum from call where pnum in ('x', 'y') and date = '2016-08-01' \
                 and region like '%st'",
                &a0()
            )
            .unwrap()
        );
    }
}
