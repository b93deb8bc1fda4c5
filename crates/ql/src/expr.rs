//! Row expressions and predicates.
//!
//! Rows are positional `Datum::List` values. Expressions evaluate against
//! a row; predicates combine comparisons with boolean connectives.

use efind_common::Datum;

/// A scalar expression over a row.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// The `i`-th column of the row.
    Col(usize),
    /// A literal value.
    Lit(Datum),
    /// A composite value built from sub-expressions (multi-column join
    /// keys, e.g. TPC-H Q9's `(partkey, suppkey)` PartSupp key).
    Composite(Vec<Expr>),
}

/// Shorthand for [`Expr::Col`].
pub fn col(i: usize) -> Expr {
    Expr::Col(i)
}

/// Shorthand for [`Expr::Lit`].
pub fn lit(v: impl Into<Datum>) -> Expr {
    Expr::Lit(v.into())
}

/// Shorthand for [`Expr::Composite`].
pub fn composite(parts: impl IntoIterator<Item = Expr>) -> Expr {
    Expr::Composite(parts.into_iter().collect())
}

impl Expr {
    /// Evaluates against a row (`Null` for out-of-range columns or
    /// non-list rows).
    pub fn eval(&self, row: &Datum) -> Datum {
        match self {
            Expr::Lit(v) => v.clone(),
            Expr::Col(i) => row
                .as_list()
                .and_then(|cols| cols.get(*i))
                .cloned()
                .unwrap_or(Datum::Null),
            Expr::Composite(parts) => Datum::List(parts.iter().map(|e| e.eval(row)).collect()),
        }
    }

    /// `self == other`.
    pub fn eq(self, other: Expr) -> Pred {
        Pred::Eq(self, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Pred {
        Pred::Lt(self, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Pred {
        Pred::Gt(self, other)
    }

    /// Text containment (`LIKE '%needle%'`).
    pub fn contains(self, needle: impl Into<String>) -> Pred {
        Pred::Contains(self, needle.into())
    }
}

/// A row predicate.
#[derive(Clone, Debug, PartialEq)]
pub enum Pred {
    /// Equality.
    Eq(Expr, Expr),
    /// Strictly less (by [`Datum`] ordering).
    Lt(Expr, Expr),
    /// Strictly greater.
    Gt(Expr, Expr),
    /// Substring match on text values (false for non-text).
    Contains(Expr, String),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Evaluates against a row.
    pub fn eval(&self, row: &Datum) -> bool {
        match self {
            Pred::Eq(a, b) => a.eval(row) == b.eval(row),
            Pred::Lt(a, b) => a.eval(row) < b.eval(row),
            Pred::Gt(a, b) => a.eval(row) > b.eval(row),
            Pred::Contains(e, needle) => e
                .eval(row)
                .as_text()
                .is_some_and(|t| t.contains(needle.as_str())),
            Pred::And(a, b) => a.eval(row) && b.eval(row),
            Pred::Or(a, b) => a.eval(row) || b.eval(row),
            Pred::Not(p) => !p.eval(row),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[expect(
        clippy::should_implement_trait,
        reason = "spelled like its siblings `and` and `or`; an `std::ops::Not` impl would add `!p` as a second spelling"
    )]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Datum {
        Datum::List(vec![
            Datum::Int(5),
            Datum::Text("green metal box".into()),
            Datum::Float(2.5),
        ])
    }

    #[test]
    fn column_and_literal_eval() {
        assert_eq!(col(0).eval(&row()), Datum::Int(5));
        assert_eq!(col(9).eval(&row()), Datum::Null);
        assert_eq!(lit(7i64).eval(&row()), Datum::Int(7));
        assert_eq!(col(0).eval(&Datum::Int(3)), Datum::Null);
    }

    #[test]
    fn composite_builds_lists() {
        let e = composite([col(0), lit(9i64)]);
        assert_eq!(
            e.eval(&row()),
            Datum::List(vec![Datum::Int(5), Datum::Int(9)])
        );
    }

    #[test]
    fn comparisons() {
        assert!(col(0).eq(lit(5i64)).eval(&row()));
        assert!(col(0).lt(lit(6i64)).eval(&row()));
        assert!(col(2).gt(lit(2.0)).eval(&row()));
        assert!(!col(0).lt(lit(5i64)).eval(&row()));
    }

    #[test]
    fn text_contains() {
        assert!(col(1).contains("metal").eval(&row()));
        assert!(!col(1).contains("wood").eval(&row()));
        assert!(!col(0).contains("5").eval(&row())); // non-text
    }

    #[test]
    fn connectives() {
        let p = col(0).eq(lit(5i64)).and(col(1).contains("green"));
        assert!(p.eval(&row()));
        let q = col(0).eq(lit(6i64)).or(col(1).contains("green"));
        assert!(q.eval(&row()));
        assert!(!q.clone().not().eval(&row()));
        assert!(!q.and(col(2).lt(lit(0.0))).eval(&row()));
    }
}
