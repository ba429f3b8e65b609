//! Recursive-descent parser for the supported SQL fragment.

use crate::ast::*;
use crate::lexer::{tokenize, Keyword, Token};
use beas_common::{BeasError, Result};

/// The SQL parser.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Parse a single SQL statement.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    Parser::new(sql)?.parse_statement()
}

/// Parse a `SELECT` statement (convenience wrapper).
pub fn parse_select(sql: &str) -> Result<SelectStatement> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
    }
}

impl Parser {
    /// Create a parser over the given SQL text.
    pub fn new(sql: &str) -> Result<Self> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn peek_ahead(&self, n: usize) -> &Token {
        self.tokens.get(self.pos + n).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, expected: &Token) -> Result<()> {
        let t = self.bump();
        if &t == expected {
            Ok(())
        } else {
            Err(BeasError::parse(format!("expected {expected}, found {t}")))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        self.expect(&Token::Keyword(kw))
    }

    fn consume_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek() == &Token::Keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn consume(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(BeasError::parse(format!(
                "expected identifier, found {other}"
            ))),
        }
    }

    /// Parse a top-level statement (currently only `SELECT`).
    pub fn parse_statement(&mut self) -> Result<Statement> {
        let stmt = match self.peek() {
            Token::Keyword(Keyword::Select) => Statement::Select(self.parse_select_statement()?),
            other => return Err(BeasError::parse(format!("expected SELECT, found {other}"))),
        };
        // optional trailing semicolon
        self.consume(&Token::Semicolon);
        if self.peek() != &Token::Eof {
            return Err(BeasError::parse(format!(
                "unexpected trailing input starting at {}",
                self.peek()
            )));
        }
        Ok(stmt)
    }

    fn parse_select_statement(&mut self) -> Result<SelectStatement> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.consume_keyword(Keyword::Distinct);
        let projection = self.parse_projection()?;

        let mut from = Vec::new();
        let mut joins = Vec::new();
        if self.consume_keyword(Keyword::From) {
            from.push(self.parse_table_ref()?);
            loop {
                if self.consume(&Token::Comma) {
                    from.push(self.parse_table_ref()?);
                } else if self.peek() == &Token::Keyword(Keyword::Join)
                    || self.peek() == &Token::Keyword(Keyword::Inner)
                {
                    self.consume_keyword(Keyword::Inner);
                    self.expect_keyword(Keyword::Join)?;
                    let table = self.parse_table_ref()?;
                    self.expect_keyword(Keyword::On)?;
                    let on = self.parse_expr()?;
                    joins.push(JoinClause { table, on });
                } else {
                    break;
                }
            }
        }

        let selection = if self.consume_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.consume_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.consume(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.consume_keyword(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.consume_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.consume_keyword(Keyword::Desc) {
                    false
                } else {
                    self.consume_keyword(Keyword::Asc);
                    true
                };
                order_by.push(OrderByItem { expr, asc });
                if !self.consume(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.consume_keyword(Keyword::Limit) {
            match self.bump() {
                Token::Int(n) if n >= 0 => Some(n as u64),
                other => {
                    return Err(BeasError::parse(format!(
                        "expected non-negative integer after LIMIT, found {other}"
                    )))
                }
            }
        } else {
            None
        };

        Ok(SelectStatement {
            distinct,
            projection,
            from,
            joins,
            selection,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_projection(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            if self.consume(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else if matches!(self.peek(), Token::Ident(_))
                && self.peek_ahead(1) == &Token::Dot
                && self.peek_ahead(2) == &Token::Star
            {
                let t = self.expect_ident()?;
                self.bump(); // dot
                self.bump(); // star
                items.push(SelectItem::QualifiedWildcard(t));
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.consume_keyword(Keyword::As) {
                    Some(self.expect_ident()?)
                } else if let Token::Ident(_) = self.peek() {
                    // bare alias (`SELECT a b FROM ...`) is intentionally not
                    // supported to keep the grammar unambiguous with comma
                    // joins; require AS.
                    None
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.consume(&Token::Comma) {
                break;
            }
        }
        if items.is_empty() {
            return Err(BeasError::parse("empty projection list"));
        }
        Ok(items)
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let name = self.expect_ident()?;
        let alias = if self.consume_keyword(Keyword::As) {
            Some(self.expect_ident()?)
        } else if let Token::Ident(_) = self.peek() {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    /// Parse an expression (public so tests can parse expressions directly).
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.consume_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op: BinaryOperator::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.consume_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op: BinaryOperator::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.consume_keyword(Keyword::Not) {
            let expr = self.parse_not()?;
            Ok(Expr::UnaryOp {
                op: UnaryOperator::Not,
                expr: Box::new(expr),
            })
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;

        // postfix predicates: IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE
        if self.consume_keyword(Keyword::Is) {
            let negated = self.consume_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek() == &Token::Keyword(Keyword::Not)
            && matches!(
                self.peek_ahead(1),
                Token::Keyword(Keyword::In)
                    | Token::Keyword(Keyword::Between)
                    | Token::Keyword(Keyword::Like)
            ) {
            self.bump();
            true
        } else {
            false
        };
        if self.consume_keyword(Keyword::In) {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_additive()?);
                if !self.consume(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.consume_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.consume_keyword(Keyword::Like) {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(BeasError::parse(
                "expected IN, BETWEEN or LIKE after NOT in predicate position",
            ));
        }

        let op = match self.peek() {
            Token::Eq => Some(BinaryOperator::Eq),
            Token::NotEq => Some(BinaryOperator::NotEq),
            Token::Lt => Some(BinaryOperator::Lt),
            Token::LtEq => Some(BinaryOperator::LtEq),
            Token::Gt => Some(BinaryOperator::Gt),
            Token::GtEq => Some(BinaryOperator::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(Expr::BinaryOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOperator::Plus,
                Token::Minus => BinaryOperator::Minus,
                _ => break,
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOperator::Multiply,
                Token::Slash => BinaryOperator::Divide,
                _ => break,
            };
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::BinaryOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.consume(&Token::Minus) {
            let expr = self.parse_unary()?;
            // fold negative numeric literals immediately
            return Ok(match expr {
                Expr::Literal(Literal::Int(i)) => Expr::Literal(Literal::Int(-i)),
                Expr::Literal(Literal::Float(x)) => Expr::Literal(Literal::Float(-x)),
                e => Expr::UnaryOp {
                    op: UnaryOperator::Minus,
                    expr: Box::new(e),
                },
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(i) => Ok(Expr::Literal(Literal::Int(i))),
            Token::Float(x) => Ok(Expr::Literal(Literal::Float(x))),
            Token::Str(s) => Ok(Expr::Literal(Literal::Str(s))),
            Token::Param(slot) => Ok(Expr::Param(slot)),
            Token::Keyword(Keyword::Null) => Ok(Expr::Literal(Literal::Null)),
            Token::Keyword(Keyword::True) => Ok(Expr::Literal(Literal::Bool(true))),
            Token::Keyword(Keyword::False) => Ok(Expr::Literal(Literal::Bool(false))),
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Keyword(kw)
                if matches!(
                    kw,
                    Keyword::Count | Keyword::Sum | Keyword::Avg | Keyword::Min | Keyword::Max
                ) =>
            {
                self.parse_function_call(kw.as_str().to_string())
            }
            Token::Ident(name) => {
                if self.peek() == &Token::Dot {
                    self.bump();
                    let col = match self.bump() {
                        Token::Ident(c) => c,
                        other => {
                            return Err(BeasError::parse(format!(
                                "expected column name after `{name}.`, found {other}"
                            )))
                        }
                    };
                    Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    })
                } else if self.peek() == &Token::LParen {
                    self.parse_function_call(name.to_ascii_uppercase())
                } else {
                    Ok(Expr::Column { table: None, name })
                }
            }
            other => Err(BeasError::parse(format!(
                "unexpected token {other} in expression"
            ))),
        }
    }

    fn parse_function_call(&mut self, name: String) -> Result<Expr> {
        self.expect(&Token::LParen)?;
        if self.consume(&Token::Star) {
            self.expect(&Token::RParen)?;
            return Ok(Expr::Function {
                name,
                args: vec![],
                distinct: false,
                wildcard: true,
            });
        }
        let distinct = self.consume_keyword(Keyword::Distinct);
        let mut args = Vec::new();
        if self.peek() != &Token::RParen {
            loop {
                args.push(self.parse_expr()?);
                if !self.consume(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Expr::Function {
            name,
            args,
            distinct,
            wildcard: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_example2_query() {
        // The query of Example 2 in the paper.
        let sql = "
            select call.region
            from call, package, business
            where business.type = 't0' and business.region = 'r0' and
                  business.pnum = call.pnum and call.date = '2016-07-04' and
                  call.pnum = package.pnum and package.year = 2016
                  and package.start_month <= 7 and package.end_month >= 7
                  and package.pid = 42";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.from.len(), 3);
        assert_eq!(stmt.projection.len(), 1);
        assert!(stmt.selection.is_some());
        assert!(!stmt.distinct);
    }

    #[test]
    fn parse_aggregates_group_by_having() {
        let sql = "SELECT region, COUNT(*), SUM(duration) AS total \
                   FROM call GROUP BY region HAVING COUNT(*) > 10 ORDER BY total DESC LIMIT 5";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.projection.len(), 3);
        assert_eq!(stmt.group_by.len(), 1);
        assert!(stmt.having.is_some());
        assert_eq!(stmt.order_by.len(), 1);
        assert!(!stmt.order_by[0].asc);
        assert_eq!(stmt.limit, Some(5));
        match &stmt.projection[2] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            _ => panic!("expected aliased expr"),
        }
    }

    #[test]
    fn parse_joins_and_aliases() {
        let sql =
            "SELECT c.region FROM call c JOIN business b ON b.pnum = c.pnum WHERE b.type = 'bank'";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.from.len(), 1);
        assert_eq!(stmt.joins.len(), 1);
        assert_eq!(stmt.joins[0].table.name, "business");
        assert_eq!(stmt.joins[0].table.alias.as_deref(), Some("b"));
    }

    #[test]
    fn parse_in_between_like_isnull() {
        let sql = "SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 1 AND 10 \
                   AND c LIKE 'ab%' AND d IS NOT NULL AND e NOT IN (4) AND f NOT BETWEEN 0 AND 1";
        let stmt = parse_select(sql).unwrap();
        let w = stmt.selection.unwrap().to_string();
        assert!(w.contains("IN (1, 2, 3)"));
        assert!(w.contains("BETWEEN 1 AND 10"));
        assert!(w.contains("LIKE 'ab%'"));
        assert!(w.contains("IS NOT NULL"));
        assert!(w.contains("NOT IN (4)"));
        assert!(w.contains("NOT BETWEEN 0 AND 1"));
    }

    #[test]
    fn parse_arithmetic_precedence() {
        let stmt = parse_select("SELECT a + b * 2 FROM t").unwrap();
        match &stmt.projection[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.to_string(), "(a + (b * 2))");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_boolean_precedence() {
        let stmt = parse_select("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter than OR
        assert_eq!(
            stmt.selection.unwrap().to_string(),
            "((a = 1) OR ((b = 2) AND (c = 3)))"
        );
    }

    #[test]
    fn parse_not_and_negative_literals() {
        let stmt = parse_select("SELECT a FROM t WHERE NOT a = -5").unwrap();
        assert_eq!(stmt.selection.unwrap().to_string(), "(NOT (a = -5))");
    }

    #[test]
    fn parse_distinct_and_wildcards() {
        let stmt = parse_select("SELECT DISTINCT * FROM t").unwrap();
        assert!(stmt.distinct);
        assert_eq!(stmt.projection, vec![SelectItem::Wildcard]);
        let stmt2 = parse_select("SELECT t.* FROM t").unwrap();
        assert_eq!(
            stmt2.projection,
            vec![SelectItem::QualifiedWildcard("t".into())]
        );
    }

    #[test]
    fn parse_count_distinct() {
        let stmt = parse_select("SELECT COUNT(DISTINCT pnum) FROM call").unwrap();
        match &stmt.projection[0] {
            SelectItem::Expr {
                expr: Expr::Function { distinct, name, .. },
                ..
            } => {
                assert!(*distinct);
                assert_eq!(name, "COUNT");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_select("SELECT").is_err());
        assert!(parse_select("SELECT FROM t").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_select("INSERT INTO t VALUES (1)").is_err());
        assert!(parse_select("SELECT a FROM t extra garbage ,").is_err());
        assert!(parse_select("SELECT a FROM t WHERE a NOT 5").is_err());
    }

    #[test]
    fn round_trip_display_reparses() {
        let sql = "SELECT DISTINCT c.region, COUNT(*) AS n FROM call c, business b \
                   WHERE b.pnum = c.pnum AND b.type = 'bank' AND c.date BETWEEN '2016-01-01' AND '2016-12-31' \
                   GROUP BY c.region HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 3";
        let stmt = parse_select(sql).unwrap();
        let rendered = stmt.to_string();
        let reparsed = parse_select(&rendered).unwrap();
        assert_eq!(stmt, reparsed);
    }

    #[test]
    fn semicolon_terminated() {
        assert!(parse_select("SELECT a FROM t;").is_ok());
        assert!(parse_select("SELECT a FROM t; SELECT b FROM u").is_err());
    }
}
