//! Pins what access-schema discovery mines from the TLC workload: for every
//! candidate, its constraint, profiled bound `N`, observed maximum
//! cardinality, the number of workload queries that produced it, its rank
//! and whether the greedy selection kept it.  Any change to how discovery
//! reads a query shows up here as a changed row.

use beas::core::{discover, DiscoveryConfig};

/// `(constraint id, N, observed max, queries helped, selected)` in ranking
/// order.
type Row = (&'static str, u64, usize, usize, bool);

/// Scale 2 under the `access_discovery` example's 4 MiB index budget.
const SCALE_2_UNDER_4_MIB: &[Row] = &[
    ("region_info(region->province)", 2, 1, 2, true),
    ("business(region,type->pnum)", 3, 2, 7, true),
    ("business(pnum->region,type)", 2, 1, 7, true),
    ("plan_catalog(pid->plan_name,tier)", 2, 1, 2, true),
    ("cell_tower(region->cell_id,technology)", 28, 22, 2, true),
    ("cell_tower(cell_id->region,technology)", 2, 1, 2, true),
    ("customer(region,segment->pnum)", 25, 20, 2, true),
    ("device(pnum->brand,five_g)", 3, 2, 3, true),
    ("customer(pnum->city)", 2, 1, 2, true),
    (
        "complaint(date,resolved->category,pnum,severity)",
        208,
        166,
        1,
        true,
    ),
    (
        "complaint(date,pnum,resolved->category,severity)",
        2,
        1,
        1,
        true,
    ),
    (
        "complaint(pnum->category,date,resolved,severity)",
        2,
        1,
        1,
        true,
    ),
    ("customer(pnum->region,segment)", 2, 1, 2, true),
    ("billing(pnum->paid,year)", 3, 2, 1, true),
    ("billing(paid,year->pnum)", 500, 400, 1, true),
    ("package(pnum->pid,year)", 4, 3, 1, true),
    ("package(pid,year->pnum)", 65, 52, 1, true),
    ("device(five_g,pnum->brand)", 3, 2, 1, true),
    ("device(five_g->brand,pnum)", 435, 348, 1, true),
    ("package(pnum,year->pid)", 4, 3, 1, true),
    ("package(year->pid,pnum)", 715, 572, 1, true),
    ("package(pid->pnum,year)", 69, 55, 1, true),
    (
        "package(pnum->end_month,pid,start_month,year)",
        4,
        3,
        1,
        true,
    ),
    (
        "package(pid,year->end_month,pnum,start_month)",
        67,
        53,
        1,
        true,
    ),
    (
        "package(pid,pnum,year->end_month,start_month)",
        3,
        2,
        1,
        true,
    ),
    ("data_usage(pnum->app_category,date)", 5, 4, 1, true),
    ("call(cell_id,date->pnum)", 13, 10, 2, true),
    ("data_usage(date->app_category,pnum)", 500, 400, 1, true),
    ("data_usage(date,pnum->app_category)", 2, 1, 1, true),
    ("sms(pnum->date,recnum,sms_type)", 5, 4, 1, true),
    ("call(pnum->date,region)", 13, 10, 1, true),
    ("sms(date->pnum,recnum,sms_type)", 500, 400, 1, true),
    ("call(cell_id->date,pnum)", 74, 59, 1, true),
    ("sms(date,pnum->recnum,sms_type)", 2, 1, 1, true),
    ("call(pnum->cost,date,region)", 13, 10, 1, true),
    ("call(date->pnum,region)", 500, 400, 1, true),
    ("call(date,pnum->region)", 2, 1, 1, true),
    ("call(date->cost,pnum,region)", 500, 400, 1, true),
    ("call(date,pnum->cost,region)", 2, 1, 1, true),
    ("call(date,pnum->recnum,region)", 2, 1, 1, true),
];

/// Scale 1 under `DiscoveryConfig::default()`.
const SCALE_1_DEFAULT: &[Row] = &[
    ("region_info(region->province)", 2, 1, 2, true),
    ("business(pnum->region,type)", 2, 1, 7, true),
    ("business(region,type->pnum)", 2, 1, 7, true),
    ("plan_catalog(pid->plan_name,tier)", 2, 1, 2, true),
    ("cell_tower(region->cell_id,technology)", 27, 21, 2, true),
    ("customer(region,segment->pnum)", 13, 10, 2, true),
    ("cell_tower(cell_id->region,technology)", 2, 1, 2, true),
    ("device(pnum->brand,five_g)", 3, 2, 3, true),
    ("customer(pnum->city)", 2, 1, 2, true),
    (
        "complaint(date,resolved->category,pnum,severity)",
        105,
        84,
        1,
        true,
    ),
    (
        "complaint(date,pnum,resolved->category,severity)",
        2,
        1,
        1,
        true,
    ),
    (
        "complaint(pnum->category,date,resolved,severity)",
        2,
        1,
        1,
        true,
    ),
    ("customer(pnum->region,segment)", 2, 1, 2, true),
    ("billing(pnum->paid,year)", 3, 2, 1, true),
    ("billing(paid,year->pnum)", 250, 200, 1, true),
    ("package(pnum->pid,year)", 4, 3, 1, true),
    ("device(five_g,pnum->brand)", 3, 2, 1, true),
    ("device(five_g->brand,pnum)", 224, 179, 1, true),
    ("package(pid,year->pnum)", 30, 24, 1, true),
    ("package(pnum,year->pid)", 4, 3, 1, true),
    ("package(year->pid,pnum)", 355, 284, 1, true),
    ("package(pid->pnum,year)", 30, 24, 1, true),
    (
        "package(pnum->end_month,pid,start_month,year)",
        4,
        3,
        1,
        true,
    ),
    (
        "package(pid,year->end_month,pnum,start_month)",
        30,
        24,
        1,
        true,
    ),
    (
        "package(pid,pnum,year->end_month,start_month)",
        3,
        2,
        1,
        true,
    ),
    ("data_usage(pnum->app_category,date)", 5, 4, 1, true),
    ("data_usage(date->app_category,pnum)", 250, 200, 1, true),
    ("call(cell_id,date->pnum)", 10, 8, 2, true),
    ("data_usage(date,pnum->app_category)", 2, 1, 1, true),
    ("sms(pnum->date,recnum,sms_type)", 5, 4, 1, true),
    ("call(pnum->date,region)", 13, 10, 1, true),
    ("sms(date->pnum,recnum,sms_type)", 250, 200, 1, true),
    ("sms(date,pnum->recnum,sms_type)", 2, 1, 1, true),
    ("call(cell_id->date,pnum)", 37, 29, 1, true),
    ("call(pnum->cost,date,region)", 13, 10, 1, true),
    ("call(date->pnum,region)", 250, 200, 1, true),
    ("call(date,pnum->region)", 2, 1, 1, true),
    ("call(date->cost,pnum,region)", 250, 200, 1, true),
    ("call(date,pnum->cost,region)", 2, 1, 1, true),
    ("call(date,pnum->recnum,region)", 2, 1, 1, true),
];

fn assert_discovery(scale: u32, config: &DiscoveryConfig, expected: &[Row]) {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(scale)).unwrap();
    let (schema, report) = discover(&db, &beas::tlc::workload(), config).unwrap();
    let got: Vec<(String, u64, usize, usize, bool)> = report
        .candidates
        .iter()
        .map(|c| {
            let id = c.constraint.id();
            let selected = report.selected.contains(&id);
            (
                id,
                c.constraint.n,
                c.observed_max,
                c.queries_helped,
                selected,
            )
        })
        .collect();
    let want: Vec<(String, u64, usize, usize, bool)> = expected
        .iter()
        .map(|&(id, n, observed, helped, selected)| (id.to_string(), n, observed, helped, selected))
        .collect();
    assert_eq!(got, want);
    // The selection is the selected candidates in ranking order, and the
    // schema holds exactly those constraints.
    let selected: Vec<&str> = expected.iter().filter(|r| r.4).map(|r| r.0).collect();
    assert_eq!(report.selected, selected);
    let ids: Vec<String> = schema.constraints().iter().map(|c| c.id()).collect();
    assert_eq!(ids, selected);
}

#[test]
fn tlc_workload_at_scale_2_under_a_4_mib_budget() {
    let config = DiscoveryConfig {
        storage_budget_bytes: Some(4 * 1024 * 1024),
        ..Default::default()
    };
    assert_discovery(2, &config, SCALE_2_UNDER_4_MIB);
}

#[test]
fn tlc_workload_at_scale_1_under_the_default_config() {
    assert_discovery(1, &DiscoveryConfig::default(), SCALE_1_DEFAULT);
}
