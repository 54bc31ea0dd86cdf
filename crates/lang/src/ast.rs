//! Abstract syntax for the DDL and QUEL.

use mdm_model::Value;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `define entity NAME (attr = type, …)`
    DefineEntity {
        /// Entity type name.
        name: String,
        /// `(attribute, type-name)` pairs; a type name naming an entity
        /// type makes the attribute an entity reference.
        attrs: Vec<(String, String)>,
    },
    /// `define relationship NAME (member = type, …)` — entity-typed
    /// members are roles, value-typed members are attributes.
    DefineRelationship {
        /// Relationship name.
        name: String,
        /// `(member, type-name)` pairs.
        members: Vec<(String, String)>,
    },
    /// `define ordering [name] (CHILD, …) [under PARENT]`
    DefineOrdering {
        /// Optional ordering name.
        name: Option<String>,
        /// Child entity type names.
        children: Vec<String>,
        /// Optional parent entity type name.
        parent: Option<String>,
    },
    /// `define index NAME on ENTITY (attr)`
    DefineIndex {
        /// Index name.
        name: String,
        /// Entity type name the index covers.
        entity: String,
        /// Indexed attribute name.
        attr: String,
    },
    /// `destroy index NAME`
    DestroyIndex {
        /// Index name.
        name: String,
    },
    /// `range of v1, v2 is TYPE`
    RangeOf {
        /// Variable names.
        vars: Vec<String>,
        /// Entity or relationship type name.
        target: String,
    },
    /// `retrieve [unique] (target, …) [where qual] [sort by col [asc|desc], …]`
    Retrieve {
        /// Deduplicate result rows.
        unique: bool,
        /// Projected expressions.
        targets: Vec<Target>,
        /// Optional qualification.
        qual: Option<Expr>,
        /// Result ordering: output column names with ascending flags.
        sort: Vec<(String, bool)>,
    },
    /// `append to TYPE (attr = expr, …)`
    AppendTo {
        /// Entity type name.
        entity: String,
        /// Attribute assignments.
        assignments: Vec<(String, Expr)>,
    },
    /// `replace VAR (attr = expr, …) [where qual]`
    Replace {
        /// Range variable to update.
        var: String,
        /// Attribute assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional qualification.
        qual: Option<Expr>,
    },
    /// `delete VAR [where qual]`
    Delete {
        /// Range variable to delete.
        var: String,
        /// Optional qualification.
        qual: Option<Expr>,
    },
}

/// One projected column.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Optional output label (`label = expr`); defaults to the expression's
    /// textual form.
    pub label: Option<String>,
    /// The projected expression.
    pub expr: Expr,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `and`
    And,
    /// `or`
    Or,
}

/// The ordering operators of §5.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrdOp {
    /// `a before b [in o]`
    Before,
    /// `a after b [in o]`
    After,
    /// `a under p [in o]`
    Under,
}

impl OrdOp {
    /// The operator's keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            OrdOp::Before => "before",
            OrdOp::After => "after",
            OrdOp::Under => "under",
        }
    }
}

/// Aggregate functions (the \[Han84\] extension the paper found "directly
/// applicable": aggregates over QUEL targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(e)` — non-null values.
    Count,
    /// `sum(e)`
    Sum,
    /// `avg(e)`
    Avg,
    /// `min(e)`
    Min,
    /// `max(e)`
    Max,
}

impl AggFunc {
    /// Parses a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }

    /// The canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// Expressions (targets and qualifications).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Const(Value),
    /// Bare range variable (entity-valued, for `is` and ordering ops).
    Var(String),
    /// `var.attr` — attribute of an entity variable or member of a
    /// relationship variable.
    Attr {
        /// Range variable.
        var: String,
        /// Attribute or role name.
        attr: String,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `not e`
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `a is b` — entity identity (GEM's operator).
    Is {
        /// Left entity-valued expression.
        lhs: Box<Expr>,
        /// Right entity-valued expression.
        rhs: Box<Expr>,
    },
    /// `count(e)` / `sum(e)` / … — only legal in retrieve targets; when
    /// present, plain targets become grouping keys.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// Its argument.
        arg: Box<Expr>,
    },
    /// `a before|after|under b [in ordering]`.
    Ord {
        /// Which operator.
        op: OrdOp,
        /// Left range variable.
        lhs: String,
        /// Right range variable.
        rhs: String,
        /// Optional explicit ordering name.
        ordering: Option<String>,
    },
}
