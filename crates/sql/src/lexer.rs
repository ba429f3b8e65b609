//! Hand-written SQL lexer, and the one pass over its tokens that splits a
//! statement into its *shape* and its literal values ([`lift_literals`]).

use beas_common::{BeasError, Result, Value};
use std::fmt;

/// Keywords recognised by the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    Select,
    Distinct,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Limit,
    Asc,
    Desc,
    And,
    Or,
    Not,
    In,
    Between,
    Like,
    Is,
    Null,
    True,
    False,
    As,
    Join,
    Inner,
    On,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl Keyword {
    /// Every keyword, for the case-insensitive lookup.
    const ALL: [Keyword; 30] = {
        use Keyword::*;
        [
            Select, Distinct, From, Where, Group, By, Having, Order, Limit, Asc, Desc, And, Or,
            Not, In, Between, Like, Is, Null, True, False, As, Join, Inner, On, Count, Sum, Avg,
            Min, Max,
        ]
    };

    fn from_ident(s: &str) -> Option<Keyword> {
        Keyword::ALL
            .into_iter()
            .find(|kw| kw.as_str().eq_ignore_ascii_case(s))
    }

    /// Canonical (upper-case) spelling.
    pub fn as_str(&self) -> &'static str {
        use Keyword::*;
        match self {
            Select => "SELECT",
            Distinct => "DISTINCT",
            From => "FROM",
            Where => "WHERE",
            Group => "GROUP",
            By => "BY",
            Having => "HAVING",
            Order => "ORDER",
            Limit => "LIMIT",
            Asc => "ASC",
            Desc => "DESC",
            And => "AND",
            Or => "OR",
            Not => "NOT",
            In => "IN",
            Between => "BETWEEN",
            Like => "LIKE",
            Is => "IS",
            Null => "NULL",
            True => "TRUE",
            False => "FALSE",
            As => "AS",
            Join => "JOIN",
            Inner => "INNER",
            On => "ON",
            Count => "COUNT",
            Sum => "SUM",
            Avg => "AVG",
            Min => "MIN",
            Max => "MAX",
        }
    }
}

/// Lexical tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A keyword.
    Keyword(Keyword),
    /// An identifier (table, alias or column name), lower-cased.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes removed, `''` unescaped).
    Str(String),
    /// A parameter placeholder of a query shape (`?i`, `?f` or `?s`, see
    /// [`lift_literals`]), numbered in order of appearance.  The letter only
    /// keeps shapes of different literal types apart; the value bound to
    /// the slot carries the type.
    Param(usize),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `;`
    Semicolon,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{}", k.as_str()),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Param(slot) => write!(f, "?{slot}"),
            Token::Comma => write!(f, ","),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Semicolon => write!(f, ";"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// The lexer: converts SQL text into a token stream.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    /// Placeholders seen so far: the slot of the next one.
    params: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over the given SQL text.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            params: 0,
        }
    }

    /// Tokenize the whole input, appending a trailing [`Token::Eof`].
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let done = t == Token::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_whitespace_and_comments(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'-') if self.src.get(self.pos + 1) == Some(&b'-') => {
                    // line comment
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_whitespace_and_comments()?;
        let c = match self.peek() {
            None => return Ok(Token::Eof),
            Some(c) => c,
        };
        match c {
            b',' => {
                self.bump();
                Ok(Token::Comma)
            }
            b'(' => {
                self.bump();
                Ok(Token::LParen)
            }
            b')' => {
                self.bump();
                Ok(Token::RParen)
            }
            b'.' => {
                self.bump();
                Ok(Token::Dot)
            }
            b'*' => {
                self.bump();
                Ok(Token::Star)
            }
            b'+' => {
                self.bump();
                Ok(Token::Plus)
            }
            b'-' => {
                self.bump();
                Ok(Token::Minus)
            }
            b'/' => {
                self.bump();
                Ok(Token::Slash)
            }
            b';' => {
                self.bump();
                Ok(Token::Semicolon)
            }
            b'=' => {
                self.bump();
                Ok(Token::Eq)
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Token::NotEq)
                } else {
                    Err(BeasError::parse("unexpected character `!`"))
                }
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        Ok(Token::LtEq)
                    }
                    Some(b'>') => {
                        self.bump();
                        Ok(Token::NotEq)
                    }
                    _ => Ok(Token::Lt),
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Token::GtEq)
                } else {
                    Ok(Token::Gt)
                }
            }
            b'\'' => self.lex_string(),
            b'?' => self.lex_param(),
            c if c.is_ascii_digit() => self.lex_number(),
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'"' => self.lex_ident(),
            other => Err(BeasError::parse(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn lex_string(&mut self) -> Result<Token> {
        // consume opening quote
        self.bump();
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(BeasError::parse("unterminated string literal")),
                Some(b'\'') => {
                    // `''` is an escaped quote
                    if self.peek() == Some(b'\'') {
                        self.bump();
                        s.push('\'');
                    } else {
                        return Ok(Token::Str(s));
                    }
                }
                Some(c) => s.push(c as char),
            }
        }
    }

    fn lex_param(&mut self) -> Result<Token> {
        self.bump();
        let typed = matches!(self.bump(), Some(b'i' | b'f' | b's'));
        let ends = !matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_');
        if !(typed && ends) {
            return Err(BeasError::parse(
                "expected `?i`, `?f` or `?s` as a parameter placeholder",
            ));
        }
        self.params += 1;
        Ok(Token::Param(self.params - 1))
    }

    fn lex_number(&mut self) -> Result<Token> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.pos += 1;
            } else if c == b'.'
                && !is_float
                && self
                    .src
                    .get(self.pos + 1)
                    .map(|d| d.is_ascii_digit())
                    .unwrap_or(false)
            {
                is_float = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| BeasError::parse("invalid utf-8 in numeric literal"))?;
        if is_float {
            text.parse::<f64>()
                .map(Token::Float)
                .map_err(|_| BeasError::parse(format!("invalid float literal {text:?}")))
        } else {
            text.parse::<i64>()
                .map(Token::Int)
                .map_err(|_| BeasError::parse(format!("invalid integer literal {text:?}")))
        }
    }

    fn lex_ident(&mut self) -> Result<Token> {
        // double-quoted identifier
        if self.peek() == Some(b'"') {
            self.bump();
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' {
                    break;
                }
                self.pos += 1;
            }
            if self.peek() != Some(b'"') {
                return Err(BeasError::parse("unterminated quoted identifier"));
            }
            let text = std::str::from_utf8(&self.src[start..self.pos])
                .map_err(|_| BeasError::parse("invalid utf-8 in identifier"))?
                .to_string();
            self.bump();
            return Ok(Token::Ident(text.to_ascii_lowercase()));
        }
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| BeasError::parse("invalid utf-8 in identifier"))?;
        if let Some(kw) = Keyword::from_ident(text) {
            Ok(Token::Keyword(kw))
        } else {
            Ok(Token::Ident(text.to_ascii_lowercase()))
        }
    }
}

/// Tokenize SQL text.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    Lexer::new(sql).tokenize()
}

/// The clauses [`lift_literals`] tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Clause {
    /// Select list, FROM, ORDER BY, LIMIT: nothing is lifted.
    #[default]
    Other,
    Where,
    On,
    GroupBy,
    Having,
}

/// Where in the statement the token stream is, as far as lifting needs to
/// know.
#[derive(Debug, Default)]
struct LiftState {
    clause: Clause,
    /// Open parentheses.
    depth: u32,
    /// Depth at which the outermost open function call's parenthesis sits.
    call_depth: Option<u32>,
    /// The previous token was a minus sign, or parentheses opened after one.
    after_minus: bool,
    /// The previous token can name a function.
    after_name: bool,
    /// GROUP BY held a literal.
    literal_group_key: bool,
}

impl LiftState {
    /// Whether a literal at `token`'s position is lifted; then move past
    /// the token.
    ///
    /// Lifted: literals of WHERE, JOIN ON and HAVING.  Kept in the shape,
    /// because what the binder or the parser does with them depends on
    /// their value:
    /// * a literal under a minus sign — the parser folds it into a negative
    ///   literal, and a lifted one could not be folded;
    /// * a literal inside a function call — the binder merges aggregate
    ///   calls that print alike, so `HAVING SUM(x + 1) > 5` reads the
    ///   select list's `SUM(x + 1)` and a `SUM(x + 2)` would not;
    /// * HAVING literals when GROUP BY holds one — the binder matches HAVING
    ///   sub-expressions against group keys by their text.
    fn observe(&mut self, token: &Token) -> bool {
        let liftable = match self.clause {
            Clause::Where | Clause::On => true,
            Clause::Having => !self.literal_group_key,
            Clause::Other | Clause::GroupBy => false,
        } && self.call_depth.is_none()
            && !self.after_minus;
        match token {
            Token::Keyword(kw) => match kw {
                Keyword::Where => self.clause = Clause::Where,
                Keyword::On => self.clause = Clause::On,
                Keyword::Group => self.clause = Clause::GroupBy,
                Keyword::Having => self.clause = Clause::Having,
                Keyword::Select
                | Keyword::From
                | Keyword::Join
                | Keyword::Inner
                | Keyword::Order
                | Keyword::Limit => self.clause = Clause::Other,
                _ => {}
            },
            // `FROM a JOIN b ON .., c`: the comma ends the ON condition
            Token::Comma if self.depth == 0 && self.clause == Clause::On => {
                self.clause = Clause::Other
            }
            Token::LParen => {
                self.depth += 1;
                if self.after_name && self.call_depth.is_none() {
                    self.call_depth = Some(self.depth);
                }
            }
            Token::RParen => {
                if self.call_depth == Some(self.depth) {
                    self.call_depth = None;
                }
                self.depth = self.depth.saturating_sub(1);
            }
            Token::Int(_) | Token::Float(_) | Token::Str(_) if self.clause == Clause::GroupBy => {
                self.literal_group_key = true
            }
            _ => {}
        }
        self.after_minus = *token == Token::Minus || (self.after_minus && *token == Token::LParen);
        self.after_name = matches!(
            token,
            Token::Ident(_)
                | Token::Keyword(
                    Keyword::Count | Keyword::Sum | Keyword::Avg | Keyword::Min | Keyword::Max
                )
        );
        liftable
    }
}

/// Split SQL text into its **shape** and the literal values lifted out of
/// it, in token order.
///
/// The shape is the token stream rendered back as text — lower-cased
/// outside string literals, one space between tokens, comments dropped —
/// with every lifted literal replaced by a typed placeholder: `?i` for an
/// integer, `?f` for a float, `?s` for a string.  So `r = 'East'` and
/// `r = 'east'` share a shape, `x = 5`, `x = 5.0` and `x = '5'` are three
/// shapes, and `IN (?s, ?s)` and `IN (?s, ?s, ?s)` are two.  A shape is
/// itself SQL the parser accepts: its placeholders parse to
/// [`crate::ast::Expr::Param`] slots, numbered like the returned values.
///
/// Lifted are the `Int` / `Float` / `Str` literals of WHERE, JOIN ON and
/// HAVING; LIMIT counts, ORDER BY / GROUP BY ordinals, select-list
/// constants, `NULL` / `TRUE` / `FALSE` and the cases listed at
/// `LiftState::observe` stay in the shape verbatim.
///
/// Fails where the lexer fails, and on a placeholder in `sql` itself:
/// shapes are made here, not submitted.
pub fn lift_literals(sql: &str) -> Result<(String, Vec<Value>)> {
    let mut lexer = Lexer::new(sql);
    let mut state = LiftState::default();
    let mut shape = String::with_capacity(sql.len());
    let mut values = Vec::new();
    loop {
        lexer.skip_whitespace_and_comments()?;
        let start = lexer.pos;
        let token = lexer.next_token()?;
        if token == Token::Eof {
            return Ok((shape, values));
        }
        if !shape.is_empty() {
            shape.push(' ');
        }
        let lifted = state.observe(&token);
        match token {
            Token::Int(i) if lifted => {
                shape.push_str("?i");
                values.push(Value::Int(i));
            }
            Token::Float(x) if lifted => {
                shape.push_str("?f");
                values.push(Value::Float(x));
            }
            Token::Str(s) if lifted => {
                shape.push_str("?s");
                values.push(Value::Str(s));
            }
            Token::Param(_) => {
                return Err(BeasError::parse(
                    "parameter placeholders are not accepted in submitted SQL",
                ))
            }
            // a string literal that stays keeps its bytes, case included
            Token::Str(_) => shape.push_str(&sql[start..lexer.pos]),
            _ => shape.extend(
                sql[start..lexer.pos]
                    .chars()
                    .map(|c| c.to_ascii_lowercase()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_simple_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE a = 1;").unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::Select));
        assert_eq!(toks[1], Token::Ident("a".into()));
        assert_eq!(toks[2], Token::Comma);
        assert!(toks.contains(&Token::Eq));
        assert!(toks.contains(&Token::Int(1)));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn lex_operators() {
        let toks = tokenize("a <= 1 AND b >= 2 AND c <> 3 AND d != 4 AND e < 5 AND f > 6").unwrap();
        assert!(toks.contains(&Token::LtEq));
        assert!(toks.contains(&Token::GtEq));
        assert_eq!(toks.iter().filter(|t| **t == Token::NotEq).count(), 2);
        assert!(toks.contains(&Token::Lt));
        assert!(toks.contains(&Token::Gt));
    }

    #[test]
    fn lex_strings_with_escapes() {
        let toks = tokenize("name = 'o''brien'").unwrap();
        assert!(toks.contains(&Token::Str("o'brien".into())));
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn lex_numbers() {
        let toks = tokenize("1 2.5 300").unwrap();
        assert_eq!(toks[0], Token::Int(1));
        assert_eq!(toks[1], Token::Float(2.5));
        assert_eq!(toks[2], Token::Int(300));
    }

    #[test]
    fn identifiers_are_lowercased_and_keywords_case_insensitive() {
        let toks = tokenize("SeLeCt MyCol FROM \"MyTable\"").unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::Select));
        assert_eq!(toks[1], Token::Ident("mycol".into()));
        assert_eq!(toks[3], Token::Ident("mytable".into()));
    }

    #[test]
    fn line_comments_are_skipped() {
        let toks = tokenize("SELECT a -- comment here\nFROM t").unwrap();
        assert_eq!(toks.len(), 5); // SELECT a FROM t EOF
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(tokenize("SELECT @a").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn dotted_reference() {
        let toks = tokenize("call.region").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("call".into()),
                Token::Dot,
                Token::Ident("region".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn placeholders_lex_to_numbered_slots() {
        let toks = tokenize("a = ?i AND b IN (?s, ?s) AND c < ?f").unwrap();
        let slots: Vec<usize> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Param(slot) => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert!(tokenize("a = ?").is_err());
        assert!(tokenize("a = ?x").is_err());
        assert!(tokenize("a = ?int").is_err());
    }

    fn shape(sql: &str) -> String {
        lift_literals(sql).unwrap().0
    }

    #[test]
    fn shape_key_collapses_case_whitespace_and_comments_outside_literals() {
        // a re-cased, re-spaced or commented text is one shape
        assert_eq!(
            lift_literals("SELECT  x\n FROM   t WHERE r = 'East  WING'").unwrap(),
            (
                "select x from t where r = ?s".to_string(),
                vec![Value::str("East  WING")]
            )
        );
        assert_eq!(shape("  select 1  "), "select 1");
        assert_eq!(
            shape("Select Region\tFrom call"),
            shape("select region from call")
        );
        assert_eq!(
            shape("select x from t -- note\nwhere r = 'East'"),
            "select x from t where r = ?s"
        );
        assert_eq!(shape("select 1 -- tail"), "select 1");
        // an apostrophe inside a comment opens no literal
        assert_eq!(
            lift_literals("select x from t -- it's a probe\nwhere r = 'East'").unwrap(),
            (
                "select x from t where r = ?s".to_string(),
                vec![Value::str("East")]
            )
        );
        // a literal that stays in the shape keeps its case and its escapes
        assert_ne!(shape("select 'East' from t"), shape("select 'east' from t"));
        assert_eq!(
            shape("select 'o''brien' from t"),
            "select 'o''brien' from t"
        );
        // a quoted identifier is not the keyword it spells
        assert_ne!(shape("select \"from\" from t"), shape("select from from t"));
    }

    #[test]
    fn statements_that_differ_in_lifted_values_share_a_shape() {
        let (east, v_east) = lift_literals("select * from t where r = 'East'").unwrap();
        let (lower, v_lower) = lift_literals("select * from t where r = 'east'").unwrap();
        assert_eq!(east, lower);
        assert_ne!(v_east, v_lower);
        assert_eq!(
            lift_literals("select * from t where r = 'o''brien'")
                .unwrap()
                .1,
            vec![Value::str("o'brien")]
        );
        assert_eq!(
            lift_literals("select a from t where b BETWEEN 1 AND 2 and c like 'ab%'").unwrap(),
            (
                "select a from t where b between ?i and ?i and c like ?s".to_string(),
                vec![Value::Int(1), Value::Int(2), Value::str("ab%")]
            )
        );
        // JOIN ON conditions are lifted like WHERE; the comma ends them
        assert_eq!(
            lift_literals("select 7 from a join b on a.k = b.k and b.y = 5, c where c.z = 6.5")
                .unwrap(),
            (
                "select 7 from a join b on a . k = b . k and b . y = ?i , c where c . z = ?f"
                    .to_string(),
                vec![Value::Int(5), Value::Float(6.5)]
            )
        );
    }

    #[test]
    fn literal_types_and_in_list_lengths_are_part_of_the_shape() {
        let int = shape("select * from t where x = 5");
        let float = shape("select * from t where x = 5.0");
        let string = shape("select * from t where x = '5'");
        assert_eq!(int, "select * from t where x = ?i");
        assert_eq!(float, "select * from t where x = ?f");
        assert_eq!(string, "select * from t where x = ?s");
        assert_ne!(
            shape("select * from t where x in ('a', 'b')"),
            shape("select * from t where x in ('a', 'b', 'c')")
        );
    }

    #[test]
    fn literals_whose_value_the_front_end_reads_stay_in_the_shape() {
        // LIMIT counts, ORDER BY / GROUP BY ordinals, select-list constants
        assert_ne!(
            shape("select x from t where y = 1 limit 5"),
            shape("select x from t where y = 1 limit 10")
        );
        assert_ne!(
            shape("select x, y from t order by 1"),
            shape("select x, y from t order by 2")
        );
        assert_ne!(shape("select x, 1 from t"), shape("select x, 2 from t"));
        assert_ne!(
            shape("select x from t group by 1"),
            shape("select x from t group by 2")
        );
        // NULL / TRUE / FALSE
        assert_eq!(
            lift_literals("select x from t where y = TRUE and z is not null").unwrap(),
            (
                "select x from t where y = true and z is not null".to_string(),
                vec![]
            )
        );
        // a literal under a minus sign, through parentheses too
        for sql in [
            "select x from t where y = -5",
            "select x from t where y = -(5)",
        ] {
            assert!(lift_literals(sql).unwrap().1.is_empty(), "{sql}");
        }
        assert_eq!(
            lift_literals("select x from t where y - 5 > 2").unwrap().1,
            vec![Value::Int(2)]
        );
        // HAVING: lifted outside calls ...
        assert_eq!(
            lift_literals("select r from t group by r having count(distinct x) > 5").unwrap(),
            (
                "select r from t group by r having count ( distinct x ) > ?i".to_string(),
                vec![Value::Int(5)]
            )
        );
        // ... kept inside them, and kept altogether next to a literal group key
        assert_eq!(
            lift_literals("select r from t group by r having sum(x + 1) > 5")
                .unwrap()
                .1,
            vec![Value::Int(5)]
        );
        assert!(
            lift_literals("select x + 1 from t group by x + 1 having x + 1 > 5")
                .unwrap()
                .1
                .is_empty()
        );
    }

    #[test]
    fn shapes_are_made_not_submitted() {
        let err = lift_literals("select x from t where y = ?i").unwrap_err();
        assert_eq!(err.kind(), "parse");
        assert!(lift_literals("select 'open").is_err());
    }
}
