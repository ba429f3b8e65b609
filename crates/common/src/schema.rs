//! Relation schemas: base-table schemas stored in the catalog and the
//! derived schemas of intermediate results flowing through query plans.

use crate::error::{BeasError, Result};
use crate::types::DataType;
use std::fmt;
use std::sync::Arc;

/// A column definition in a base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (lower-cased at catalog registration time).
    pub name: String,
    /// Declared data type.
    pub data_type: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
}

impl ColumnDef {
    /// Construct a non-nullable column definition.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into().to_ascii_lowercase(),
            data_type,
            nullable: false,
        }
    }

    /// Construct a nullable column definition.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            nullable: true,
            ..ColumnDef::new(name, data_type)
        }
    }
}

/// Schema of a base table registered in the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (lower-cased).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Build a table schema, rejecting duplicate column names.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Result<Self> {
        let name = name.into().to_ascii_lowercase();
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(BeasError::catalog(format!(
                    "duplicate column {:?} in table {:?}",
                    c.name, name
                )));
            }
        }
        if columns.is_empty() {
            return Err(BeasError::catalog(format!(
                "table {name:?} must have at least one column"
            )));
        }
        Ok(TableSchema { name, columns })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let name = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// All column names in declaration order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Resolve a list of column names to indices, erroring on unknown names.
    pub fn resolve_columns(&self, names: &[String]) -> Result<Vec<usize>> {
        names
            .iter()
            .map(|n| {
                self.column_index(n).ok_or_else(|| {
                    BeasError::binding(format!("unknown column {:?} in table {:?}", n, self.name))
                })
            })
            .collect()
    }
}

/// A fully-qualified reference to a column of a base table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Table (or alias) the column belongs to.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Build a column reference, lower-casing both parts.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: table.into().to_ascii_lowercase(),
            column: column.into().to_ascii_lowercase(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// Schema of an intermediate or final result: a list of named, typed fields.
///
/// Fields keep an optional *origin* (`table`) so that the planner can trace a
/// projected column back to the base-table attribute it came from — bounded
/// plan generation needs this to decide which access constraints apply.
///
/// A schema is immutable once built and its fields are shared, so cloning
/// one — plans, prepared queries and results all carry copies — costs a
/// reference count, not a `String` per field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<[Field]>,
}

impl Default for Schema {
    fn default() -> Self {
        Schema::empty()
    }
}

/// One field of an intermediate-result schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Output name of the field.
    pub name: String,
    /// Data type.
    pub data_type: DataType,
    /// Originating table/alias, when the field is a direct column reference.
    pub table: Option<String>,
}

impl Field {
    /// A field originating from a base-table column.
    pub fn base(table: impl Into<String>, name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into().to_ascii_lowercase(),
            data_type,
            table: Some(table.into().to_ascii_lowercase()),
        }
    }

    /// A derived field (expression output, aggregate, ...).
    pub fn derived(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into().to_ascii_lowercase(),
            data_type,
            table: None,
        }
    }

    /// The fully-qualified name `table.column` when the origin is known,
    /// otherwise just the field name.
    pub fn qualified_name(&self) -> String {
        match &self.table {
            Some(t) => format!("{t}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema {
            fields: fields.into(),
        }
    }

    /// Empty schema (zero columns), used by plans that produce no columns.
    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    /// Derive an intermediate schema exposing every column of a base table
    /// under alias `alias`.
    pub fn from_table(alias: &str, table: &TableSchema) -> Self {
        Schema {
            fields: table
                .columns
                .iter()
                .map(|c| Field::base(alias, &c.name, c.data_type))
                .collect(),
        }
    }

    /// The fields of the schema.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Append the fields of `other` (used when joining two inputs).
    pub fn join(&self, other: &Schema) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .chain(other.fields.iter())
                .cloned()
                .collect(),
        }
    }

    /// Find a field index by name, optionally qualified by table/alias.
    ///
    /// Returns an error if the reference is ambiguous (matches more than one
    /// field) or unknown.
    pub fn resolve(&self, table: Option<&str>, column: &str) -> Result<usize> {
        let column = column.to_ascii_lowercase();
        let table = table.map(|t| t.to_ascii_lowercase());
        let matches: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.name == column
                    && match (&table, &f.table) {
                        (None, _) => true,
                        (Some(t), Some(ft)) => t == ft,
                        (Some(_), None) => false,
                    }
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(BeasError::binding(format!(
                "unknown column {}{}",
                table.map(|t| format!("{t}.")).unwrap_or_default(),
                column
            ))),
            1 => Ok(matches[0]),
            _ => Err(BeasError::binding(format!(
                "ambiguous column reference {column:?}"
            ))),
        }
    }

    /// Field at index `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Index of the field whose qualified origin is `table.column`, if any.
    pub fn index_of_origin(&self, table: &str, column: &str) -> Option<usize> {
        let table = table.to_ascii_lowercase();
        let column = column.to_ascii_lowercase();
        self.fields
            .iter()
            .position(|f| f.table.as_deref() == Some(table.as_str()) && f.name == column)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self
            .fields
            .iter()
            .map(|fl| format!("{}:{}", fl.qualified_name(), fl.data_type))
            .collect();
        write!(f, "[{}]", cols.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call_schema() -> TableSchema {
        TableSchema::new(
            "call",
            vec![
                ColumnDef::new("pnum", DataType::Str),
                ColumnDef::new("recnum", DataType::Str),
                ColumnDef::new("date", DataType::Date),
                ColumnDef::new("region", DataType::Str),
            ],
        )
        .unwrap()
    }

    #[test]
    fn table_schema_lookup() {
        let s = call_schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.column_index("RECNUM"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.column("date").unwrap().data_type, DataType::Date);
        assert_eq!(
            s.resolve_columns(&["pnum".into(), "region".into()])
                .unwrap(),
            vec![0, 3]
        );
        assert!(s.resolve_columns(&["nope".into()]).is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("A", DataType::Str),
            ],
        );
        assert!(r.is_err());
        assert!(TableSchema::new("t", vec![]).is_err());
    }

    #[test]
    fn derived_schema_resolution() {
        let call = call_schema();
        let s = Schema::from_table("c", &call);
        assert_eq!(s.len(), 4);
        assert_eq!(s.resolve(Some("c"), "region").unwrap(), 3);
        assert_eq!(s.resolve(None, "pnum").unwrap(), 0);
        assert!(s.resolve(Some("x"), "pnum").is_err());
        assert!(s.resolve(None, "nope").is_err());
    }

    #[test]
    fn join_schema_detects_ambiguity() {
        let call = call_schema();
        let a = Schema::from_table("a", &call);
        let b = Schema::from_table("b", &call);
        let j = a.join(&b);
        assert_eq!(j.len(), 8);
        assert!(j.resolve(None, "pnum").is_err()); // ambiguous
        assert_eq!(j.resolve(Some("b"), "pnum").unwrap(), 4);
        assert_eq!(j.index_of_origin("a", "pnum"), Some(0));
        assert_eq!(j.index_of_origin("b", "region"), Some(7));
    }

    #[test]
    fn column_ref_display() {
        let c = ColumnRef::new("Call", "PNUM");
        assert_eq!(c.to_string(), "call.pnum");
    }

    #[test]
    fn schema_display() {
        let s = Schema::new(vec![
            Field::base("call", "region", DataType::Str),
            Field::derived("cnt", DataType::Int),
        ]);
        assert_eq!(s.to_string(), "[call.region:VARCHAR, cnt:INT]");
        assert_eq!(s.field(1).qualified_name(), "cnt");
    }
}
