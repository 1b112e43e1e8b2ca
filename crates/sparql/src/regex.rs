//! A small regular-expression engine for SPARQL's `regex()` builtin.
//!
//! Implemented in-tree (the sanctioned dependency list has no regex
//! crate). Supports the subset that SPARQL filters in practice use —
//! and everything the paper's examples need (`regex(?name, "Smith")`):
//!
//! * literal characters, `.`
//! * character classes `[abc]`, ranges `[a-z]`, negation `[^...]`
//! * anchors `^` and `$`
//! * quantifiers `*`, `+`, `?`
//! * alternation `|` and grouping `(...)`
//! * escapes `\.` `\\` `\d` `\w` `\s` (and their literal forms)
//! * the `i` (case-insensitive) flag of `regex(str, pattern, flags)`
//!
//! Matching is *search* semantics (the pattern may match anywhere in the
//! input), per the XPath `fn:matches` behaviour SPARQL inherits.
//!
//! A pattern arrives inside a sub-query frame, so it is hostile input.
//! [`Regex::with_flags`] compiles it once into a program whose size is
//! linear in the pattern, and [`Regex::is_match`] simulates that program
//! over all its threads at once: pattern size × input length steps at
//! most, whatever the pattern nests (`^(a+)+$` is no slower than `^a+$`;
//! groups nest at most 128 deep, which bounds the stack).
//! Before that, an input must hold what the pattern's top level fixes:
//! the single-character steps after a leading `^` at its start, those
//! before a trailing `$` at its end, or else the longest top-level run of
//! plain characters anywhere. For `"Smith"` or `"/d4[0-9]/student18$"`
//! that test is the whole match. Under the `i` flag the input is folded
//! a character at a time as it is read.

use std::fmt;

/// A compiled pattern.
#[derive(Debug, Clone)]
pub struct Regex {
    /// The program; its last instruction is [`Inst::Match`].
    prog: Vec<Inst>,
    /// What every matching input holds: tested before the program runs.
    literal: Literal,
    /// The pattern is nothing but `literal` and its anchors: the test is
    /// the whole match.
    literal_only: bool,
    /// The `i` flag: pattern and input are folded, char by char.
    fold: bool,
}

/// What every input the pattern matches holds, and where: a test that
/// costs a few comparisons, made before the program runs. A step is a
/// single-character instruction (a character, `.` or a class), folded
/// under the `i` flag like the pattern.
#[derive(Debug, Clone, PartialEq)]
enum Literal {
    /// Anywhere: the longest run of plain characters at the top level.
    Within(String),
    /// At the start: the steps after a leading `^`.
    Prefix(Vec<Inst>),
    /// At the end: the steps before a trailing `$`.
    Suffix(Vec<Inst>),
    /// The whole input: the pattern is `^steps$`.
    Exact(Vec<Inst>),
}

/// Errors raised when compiling a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError(String);

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid regular expression: {}", self.0)
    }
}

impl std::error::Error for RegexError {}

#[derive(Debug, Clone)]
enum Node {
    Empty,
    Char(char),
    AnyChar,
    Class { negated: bool, items: Vec<ClassItem> },
    StartAnchor,
    EndAnchor,
    Concat(Vec<Node>),
    Alternate(Vec<Node>),
    Repeat { node: Box<Node>, quantifier: Quantifier },
}

#[derive(Debug, Clone, Copy)]
enum Quantifier {
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `?`
    Optional,
}

#[derive(Debug, Clone, PartialEq)]
enum ClassItem {
    Char(char),
    Range(char, char),
    Digit,
    Word,
    Space,
}

impl ClassItem {
    fn contains(&self, c: char) -> bool {
        match self {
            ClassItem::Char(x) => c == *x,
            ClassItem::Range(a, b) => (*a..=*b).contains(&c),
            ClassItem::Digit => c.is_ascii_digit(),
            ClassItem::Word => c.is_alphanumeric() || c == '_',
            ClassItem::Space => c.is_whitespace(),
        }
    }
}

/// One instruction of a compiled pattern. A thread at a consuming
/// instruction moves to the next one on a character it accepts; the
/// others move without reading input.
#[derive(Debug, Clone, PartialEq)]
enum Inst {
    Char(char),
    Any,
    Class { negated: bool, items: Vec<ClassItem> },
    /// `^`: passes at the start of the input only.
    Start,
    /// `$`: passes at the end of the input only.
    End,
    /// Continues at both targets.
    Split(usize, usize),
    Jump(usize),
    Match,
}

impl Inst {
    fn consumes(&self, c: char) -> bool {
        match self {
            Inst::Char(x) => *x == c,
            Inst::Any => true,
            Inst::Class { negated, items } => items.iter().any(|i| i.contains(c)) != *negated,
            _ => false,
        }
    }
}

/// Simple case folding, the same on pattern and input: the lowercase form
/// where that is one character, the character itself where it is not
/// (`İ` lowercases to two).
fn fold_char(c: char) -> char {
    if c.is_ascii() {
        return c.to_ascii_lowercase();
    }
    let mut lower = c.to_lowercase();
    match (lower.next(), lower.next()) {
        (Some(l), None) => l,
        _ => c,
    }
}

/// Programs of up to this many instructions are simulated on the stack.
const INLINE_INSTS: usize = 64;

impl Regex {
    /// Compiles `pattern` with the given SPARQL flags string (only `i` is
    /// recognized; other flags are rejected). All per-pattern work happens
    /// here, case folding included.
    pub fn with_flags(pattern: &str, flags: &str) -> Result<Self, RegexError> {
        let mut fold = false;
        for f in flags.chars() {
            match f {
                'i' => fold = true,
                's' | 'm' | 'x' => {
                    return Err(RegexError(format!("flag {f:?} not supported")));
                }
                other => return Err(RegexError(format!("unknown flag {other:?}"))),
            }
        }
        let node = parse(pattern, fold)?;
        let (literal, literal_only) = top_level_literal(&node);
        let mut prog = Vec::new();
        emit(node, &mut prog);
        prog.push(Inst::Match);
        Ok(Regex { prog, literal, literal_only, fold })
    }

    /// Compiles `pattern` with no flags.
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        Self::with_flags(pattern, "")
    }

    /// True if the pattern matches anywhere in `input`.
    #[inline]
    pub fn is_match(&self, input: &str) -> bool {
        self.holds_literal(input) && (self.literal_only || self.simulate(input))
    }

    /// [`Regex::is_match`] without the literal pre-check.
    #[cfg(test)]
    fn is_match_unfiltered(&self, input: &str) -> bool {
        self.simulate(input)
    }

    /// Whether `input` holds [`Regex::literal`] where it must. Under the
    /// `i` flag each character is folded as it is compared.
    #[inline]
    fn holds_literal(&self, input: &str) -> bool {
        fn steps_hold<'s>(
            mut steps: impl Iterator<Item = &'s Inst>,
            mut chars: impl Iterator<Item = char>,
        ) -> bool {
            steps.all(|step| chars.next().is_some_and(|c| step.consumes(c)))
        }
        let fold = self.fold;
        let read = move |c: char| if fold { fold_char(c) } else { c };
        match &self.literal {
            Literal::Within(run) if !fold => input.contains(run.as_str()),
            Literal::Within(run) => {
                let mut rest = run.chars();
                let Some(first) = rest.next() else { return true };
                input.char_indices().any(|(i, c)| {
                    let mut after = input[i + c.len_utf8()..].chars();
                    read(c) == first && rest.clone().all(|r| after.next().map(read) == Some(r))
                })
            }
            Literal::Prefix(steps) => steps_hold(steps.iter(), input.chars().map(read)),
            Literal::Suffix(steps) => steps_hold(steps.iter().rev(), input.chars().rev().map(read)),
            Literal::Exact(steps) => {
                let mut chars = input.chars().map(read);
                steps_hold(steps.iter(), &mut chars) && chars.next().is_none()
            }
        }
    }

    /// Runs every thread of the program over `text` (folded as it is
    /// read, under the `i` flag) in lockstep, one input position at a
    /// time. A thread is an instruction index, and a position's thread
    /// list holds each index at most once, so a position costs at most
    /// one visit per instruction.
    fn simulate(&self, text: &str) -> bool {
        let n = self.prog.len();
        let mut inline = [0usize; 3 * INLINE_INSTS];
        let mut spill = Vec::new();
        let buf = if n <= INLINE_INSTS {
            &mut inline[..3 * n]
        } else {
            spill.resize(3 * n, 0);
            &mut spill[..]
        };
        let (pcs, rest) = buf.split_at_mut(n);
        let (next, added) = rest.split_at_mut(n);
        let mut threads = Threads { pcs, len: 0, added, position: 0 };
        // `next[..next_len]`: where the threads that consumed the last
        // character continue.
        let mut next_len = 0;
        let fold = self.fold;
        let mut chars = text.chars().map(|c| if fold { fold_char(c) } else { c });
        loop {
            let c = chars.next();
            threads.position += 1;
            threads.len = 0;
            next[..next_len].iter().for_each(|&pc| threads.add(pc));
            // Search semantics: a match may start at every position.
            threads.add(0);
            // The list is its own work list: what an instruction adds is
            // visited later in this same loop.
            let mut i = 0;
            while i < threads.len {
                let pc = threads.pcs[i];
                match self.prog[pc] {
                    Inst::Match => return true,
                    Inst::Split(a, b) => {
                        threads.add(a);
                        threads.add(b);
                    }
                    Inst::Jump(a) => threads.add(a),
                    Inst::Start if threads.position == 1 => threads.add(pc + 1),
                    Inst::End if c.is_none() => threads.add(pc + 1),
                    _ => {}
                }
                i += 1;
            }
            let Some(c) = c else { return false };
            next_len = 0;
            for &pc in &threads.pcs[..threads.len] {
                if self.prog[pc].consumes(c) {
                    next[next_len] = pc + 1;
                    next_len += 1;
                }
            }
        }
    }
}

/// The threads at one input position: instruction indexes in the order
/// they were added, each at most once.
struct Threads<'a> {
    pcs: &'a mut [usize],
    len: usize,
    /// Per instruction, the last position at which it was added.
    added: &'a mut [usize],
    /// 1-based, so that a zeroed `added` means "never".
    position: usize,
}

impl Threads<'_> {
    fn add(&mut self, pc: usize) {
        if self.added[pc] != self.position {
            self.added[pc] = self.position;
            self.pcs[self.len] = pc;
            self.len += 1;
        }
    }
}

/// The pattern's [`Literal`], and whether the pattern is nothing else.
/// The steps after a leading `^` or before a trailing `$`, the longer
/// run if both, when it is at least as long as the longest top-level run
/// of plain characters; that run otherwise. A node under a quantifier,
/// group or alternation is not at the top level: a match need not hold it.
fn top_level_literal(node: &Node) -> (Literal, bool) {
    let top = match node {
        Node::Concat(nodes) => nodes.as_slice(),
        one => std::slice::from_ref(one),
    };
    let step = |n: &Node| match n {
        Node::Char(c) => Some(Inst::Char(*c)),
        Node::AnyChar => Some(Inst::Any),
        Node::Class { negated, items } => Some(Inst::Class { negated: *negated, items: items.clone() }),
        _ => None,
    };
    let char_of = |n: &Node| match n {
        Node::Char(c) => Some(*c),
        _ => None,
    };
    let head: Vec<Inst> = match top {
        [Node::StartAnchor, rest @ ..] => rest.iter().map_while(step).collect(),
        _ => Vec::new(),
    };
    let tail: Vec<Inst> = match top {
        [rest @ .., Node::EndAnchor] => {
            let mut steps: Vec<Inst> = rest.iter().rev().map_while(step).collect();
            steps.reverse();
            steps
        }
        _ => Vec::new(),
    };
    let longest = top
        .split(|n| char_of(n).is_none())
        .map(|run| run.iter().filter_map(char_of).collect::<String>())
        .max_by_key(|run| run.chars().count())
        .unwrap_or_default();
    let runs = longest.chars().count();
    match top {
        [Node::StartAnchor, between @ .., Node::EndAnchor] if head.len() == between.len() => {
            (Literal::Exact(head), true)
        }
        [before @ .., Node::EndAnchor] if !tail.is_empty() && tail.len() >= head.len().max(runs) => {
            let whole = tail.len() == before.len();
            (Literal::Suffix(tail), whole)
        }
        [Node::StartAnchor, after @ ..] if !head.is_empty() && head.len() >= runs => {
            let whole = head.len() == after.len();
            (Literal::Prefix(head), whole)
        }
        _ => {
            let whole = top.iter().all(|n| char_of(n).is_some());
            (Literal::Within(longest), whole)
        }
    }
}

/// Appends the instructions matching `node` to `prog`: as many as the
/// node has characters, classes, anchors and operators, so a program is
/// linear in its pattern.
fn emit(node: Node, prog: &mut Vec<Inst>) {
    match node {
        Node::Empty => {}
        Node::Char(c) => prog.push(Inst::Char(c)),
        Node::AnyChar => prog.push(Inst::Any),
        Node::Class { negated, items } => prog.push(Inst::Class { negated, items }),
        Node::StartAnchor => prog.push(Inst::Start),
        Node::EndAnchor => prog.push(Inst::End),
        Node::Concat(nodes) => nodes.into_iter().for_each(|n| emit(n, prog)),
        Node::Alternate(mut branches) => {
            // split b1, L2 · b1 · jump end · L2: split b2, L3 · … · bn
            let last = branches.pop();
            let mut jumps = Vec::with_capacity(branches.len());
            for branch in branches {
                let split = prog.len();
                prog.push(Inst::Split(split + 1, 0));
                emit(branch, prog);
                jumps.push(prog.len());
                prog.push(Inst::Jump(0));
                prog[split] = Inst::Split(split + 1, prog.len());
            }
            last.into_iter().for_each(|n| emit(n, prog));
            for jump in jumps {
                prog[jump] = Inst::Jump(prog.len());
            }
        }
        Node::Repeat { node, quantifier } => {
            let start = prog.len();
            match quantifier {
                Quantifier::Plus => {
                    emit(*node, prog);
                    prog.push(Inst::Split(start, prog.len() + 1));
                }
                Quantifier::Star | Quantifier::Optional => {
                    prog.push(Inst::Split(start + 1, 0));
                    emit(*node, prog);
                    if matches!(quantifier, Quantifier::Star) {
                        prog.push(Inst::Jump(start));
                    }
                    prog[start] = Inst::Split(start + 1, prog.len());
                }
            }
        }
    }
}

/// Parses `pattern`, folding its literal characters when `fold` is set.
fn parse(pattern: &str, fold: bool) -> Result<Node, RegexError> {
    let mut p = Parser { chars: pattern.chars().collect(), pos: 0, fold, depth: 0 };
    let node = p.parse_alternation()?;
    if p.pos != p.chars.len() {
        return Err(RegexError(format!("unexpected {:?} at {}", p.chars[p.pos], p.pos)));
    }
    Ok(node)
}

/// Groups may nest this deep. The parser, [`emit`] and `Node`'s drop each
/// recurse once per level, so the bound is what keeps a pattern of 10⁵
/// `(` an error instead of a stack overflow (parsed queries never come
/// near it; the expression codec bounds its own nesting the same way).
const MAX_GROUP_DEPTH: usize = 128;

struct Parser {
    chars: Vec<char>,
    pos: usize,
    fold: bool,
    /// Groups open at `pos`.
    depth: usize,
}

impl Parser {
    /// A literal character of the pattern, folded under the `i` flag.
    fn literal(&self, c: char) -> char {
        if self.fold {
            fold_char(c)
        } else {
            c
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn parse_alternation(&mut self) -> Result<Node, RegexError> {
        let mut branches = vec![self.parse_concat()?];
        while self.peek() == Some('|') {
            self.bump();
            branches.push(self.parse_concat()?);
        }
        Ok(if branches.len() == 1 { branches.pop().unwrap() } else { Node::Alternate(branches) })
    }

    fn parse_concat(&mut self) -> Result<Node, RegexError> {
        let mut nodes = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            nodes.push(self.parse_repeat()?);
        }
        Ok(match nodes.len() {
            0 => Node::Empty,
            1 => nodes.pop().unwrap(),
            _ => Node::Concat(nodes),
        })
    }

    fn parse_repeat(&mut self) -> Result<Node, RegexError> {
        let atom = self.parse_atom()?;
        let quantifier = match self.peek() {
            Some('*') => Quantifier::Star,
            Some('+') => Quantifier::Plus,
            Some('?') => Quantifier::Optional,
            _ => return Ok(atom),
        };
        self.bump();
        Ok(Node::Repeat { node: Box::new(atom), quantifier })
    }

    fn parse_atom(&mut self) -> Result<Node, RegexError> {
        match self.bump() {
            None => Err(RegexError("unexpected end of pattern".into())),
            Some('(') => {
                self.depth += 1;
                if self.depth > MAX_GROUP_DEPTH {
                    return Err(RegexError(format!("groups nested deeper than {MAX_GROUP_DEPTH}")));
                }
                let inner = self.parse_alternation()?;
                if self.bump() != Some(')') {
                    return Err(RegexError("unclosed group".into()));
                }
                self.depth -= 1;
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Node::AnyChar),
            Some('^') => Ok(Node::StartAnchor),
            Some('$') => Ok(Node::EndAnchor),
            Some('*') | Some('+') | Some('?') => {
                Err(RegexError("quantifier with nothing to repeat".into()))
            }
            Some('\\') => self.parse_escape(false).map(|item| match item {
                ClassItem::Char(c) => Node::Char(c),
                other => Node::Class { negated: false, items: vec![other] },
            }),
            Some(c) => Ok(Node::Char(self.literal(c))),
        }
    }

    fn parse_escape(&mut self, _in_class: bool) -> Result<ClassItem, RegexError> {
        match self.bump() {
            None => Err(RegexError("dangling escape".into())),
            Some('d') => Ok(ClassItem::Digit),
            Some('w') => Ok(ClassItem::Word),
            Some('s') => Ok(ClassItem::Space),
            Some('n') => Ok(ClassItem::Char('\n')),
            Some('t') => Ok(ClassItem::Char('\t')),
            Some('r') => Ok(ClassItem::Char('\r')),
            Some(c) => Ok(ClassItem::Char(self.literal(c))),
        }
    }

    fn parse_class(&mut self) -> Result<Node, RegexError> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut items = Vec::new();
        loop {
            match self.bump() {
                None => return Err(RegexError("unclosed character class".into())),
                Some(']') if !items.is_empty() || negated => break,
                Some(']') => items.push(ClassItem::Char(']')),
                Some('\\') => items.push(self.parse_escape(true)?),
                Some(c) => {
                    if self.peek() == Some('-')
                        && self.chars.get(self.pos + 1).is_some_and(|&n| n != ']')
                    {
                        self.bump(); // '-'
                        let hi = self.bump().expect("checked");
                        if hi < c {
                            return Err(RegexError(format!("invalid range {c}-{hi}")));
                        }
                        items.push(ClassItem::Range(self.literal(c), self.literal(hi)));
                    } else {
                        items.push(ClassItem::Char(self.literal(c)));
                    }
                }
            }
        }
        Ok(Node::Class { negated, items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn substring_search_semantics() {
        // The paper's Fig. 4 filter: regex(?name, "Smith").
        let re = Regex::new("Smith").unwrap();
        assert!(re.is_match("John Smith"));
        assert!(re.is_match("Smithers"));
        assert!(!re.is_match("John Jones"));
    }

    #[test]
    fn case_insensitive_flag() {
        let re = Regex::with_flags("smith", "i").unwrap();
        assert!(re.is_match("SMITH"));
        assert!(re.is_match("Smith"));
        assert!(!Regex::new("smith").unwrap().is_match("SMITH"));
    }

    #[test]
    fn anchors() {
        let re = Regex::new("^ab$").unwrap();
        assert!(re.is_match("ab"));
        assert!(!re.is_match("xab"));
        assert!(!re.is_match("abx"));
        assert!(Regex::new("^ab").unwrap().is_match("abx"));
        assert!(Regex::new("ab$").unwrap().is_match("xab"));
    }

    #[test]
    fn quantifiers() {
        assert!(Regex::new("ab*c").unwrap().is_match("ac"));
        assert!(Regex::new("ab*c").unwrap().is_match("abbbc"));
        assert!(!Regex::new("ab+c").unwrap().is_match("ac"));
        assert!(Regex::new("ab+c").unwrap().is_match("abc"));
        assert!(Regex::new("ab?c").unwrap().is_match("ac"));
        assert!(Regex::new("ab?c").unwrap().is_match("abc"));
        assert!(!Regex::new("^ab?c$").unwrap().is_match("abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        let re = Regex::new("^(foo|ba(r|z))$").unwrap();
        assert!(re.is_match("foo"));
        assert!(re.is_match("bar"));
        assert!(re.is_match("baz"));
        assert!(!re.is_match("ba"));
    }

    #[test]
    fn character_classes() {
        let re = Regex::new("^[a-c1]+$").unwrap();
        assert!(re.is_match("abc1"));
        assert!(!re.is_match("abd"));
        let neg = Regex::new("^[^0-9]+$").unwrap();
        assert!(neg.is_match("abc"));
        assert!(!neg.is_match("a1c"));
    }

    #[test]
    fn escape_classes() {
        assert!(Regex::new(r"^\d+$").unwrap().is_match("123"));
        assert!(!Regex::new(r"^\d+$").unwrap().is_match("12a"));
        assert!(Regex::new(r"^\w+$").unwrap().is_match("ab_1"));
        assert!(Regex::new(r"^a\.b$").unwrap().is_match("a.b"));
        assert!(!Regex::new(r"^a\.b$").unwrap().is_match("axb"));
        assert!(Regex::new(r"\s").unwrap().is_match("a b"));
    }

    #[test]
    fn dot_matches_any_single_char() {
        let re = Regex::new("^a.c$").unwrap();
        assert!(re.is_match("abc"));
        assert!(re.is_match("a-c"));
        assert!(!re.is_match("ac"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(Regex::new("").unwrap().is_match(""));
        assert!(Regex::new("").unwrap().is_match("xyz"));
        assert!(Regex::new("a*").unwrap().is_match(""));
    }

    #[test]
    fn invalid_patterns_are_rejected() {
        assert!(Regex::new("(ab").is_err());
        assert!(Regex::new("[ab").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("[z-a]").is_err());
        assert!(Regex::with_flags("a", "q").is_err());
    }

    #[test]
    fn nested_repeats_terminate() {
        // (a*)* is a classic catastrophic pattern; zero-width guard must
        // keep it terminating.
        let re = Regex::new("^(a*)*b$").unwrap();
        assert!(re.is_match("aaab"));
        assert!(!re.is_match("aaac"));
    }

    #[test]
    fn unicode_literals() {
        let re = Regex::with_flags("héllo", "i").unwrap();
        assert!(re.is_match("say HÉLLO now"));
    }

    #[test]
    fn a_string_matches_itself_under_the_i_flag() {
        // `İ` lowercases to two characters; pattern and input must fold
        // it the same way.
        assert!(Regex::with_flags("^İ$", "i").unwrap().is_match("İ"));
        assert!(Regex::with_flags("^[İ]$", "i").unwrap().is_match("İ"));
        assert!(Regex::with_flags("İstanbul", "i").unwrap().is_match("in İSTANBUL"));
    }

    #[test]
    fn nested_quantifiers_cost_pattern_times_input() {
        // Backtracking doubles on these with every two characters
        // (seconds at 28); the simulation visits each instruction once
        // per position.
        let input = format!("{}b", "a".repeat(64));
        for pattern in ["^(a+)+$", "^(a*)*$", "^(a|a)*$", "^((a*)*)*$"] {
            let re = Regex::new(pattern).unwrap();
            let started = std::time::Instant::now();
            assert!(!re.is_match(&input), "{pattern}");
            assert!(re.is_match(&input[..64]), "{pattern}");
            assert!(started.elapsed() < std::time::Duration::from_millis(50), "{pattern}");
        }
    }

    #[test]
    fn group_nesting_is_bounded_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert!(Regex::new(&nested(MAX_GROUP_DEPTH)).unwrap().is_match("a"));
        assert!(Regex::new(&nested(MAX_GROUP_DEPTH + 1)).is_err());
        assert!(Regex::new(&nested(100_000)).is_err());
        assert!(Regex::new(&"(".repeat(100_000)).is_err());
    }

    #[test]
    fn programs_past_the_inline_size_spill_to_the_heap() {
        let months = "^(January|February|March|April|May|June|July|August|September|October|November|December)$";
        let re = Regex::new(months).unwrap();
        assert!(re.prog.len() > INLINE_INSTS);
        assert!(re.is_match("September"));
        assert!(!re.is_match("Septembers"));
    }

    #[test]
    fn the_literal_sits_where_the_anchors_put_it() {
        let literal = |p: &str| Regex::new(p).unwrap().literal;
        let within = |run: &str| Literal::Within(run.into());
        let steps = |run: &str| run.chars().map(Inst::Char).collect::<Vec<_>>();
        assert_eq!(literal("Smith"), within("Smith"));
        assert_eq!(literal("ab*cd"), within("cd")); // b is under a quantifier
        assert_eq!(literal("(abc)d|e"), within(""));
        assert_eq!(literal("x(abc)yz"), within("yz")); // a group is not top level
        assert_eq!(literal("a|b"), within(""));
        assert_eq!(literal("a$bc"), within("bc")); // `$` is not last
        assert_eq!(literal("^.*foo"), within("foo")); // no step after `^`
        assert_eq!(literal("^a.*foo"), within("foo")); // one step, a longer run
        assert_eq!(literal("^ab(c|d)*e$"), Literal::Prefix(steps("ab")));
        assert_eq!(literal("^a(c|d)*de$"), Literal::Suffix(steps("de")));
        let student = literal("/d4[0-9]/student18$");
        let Literal::Suffix(tail) = &student else { panic!("{student:?}") };
        assert_eq!(tail.len(), 14);
        assert_eq!(tail[3], Inst::Class { negated: false, items: vec![ClassItem::Range('0', '9')] });
        assert_eq!(literal("^http://x"), Literal::Prefix(steps("http://x")));
        assert_eq!(literal("^ab$"), Literal::Exact(steps("ab")));
        assert_eq!(literal("^a.$"), Literal::Exact(vec![Inst::Char('a'), Inst::Any]));
        assert_eq!(literal("^$"), Literal::Exact(Vec::new()));
        assert_eq!(literal("^(a|b)$"), within("")); // a group between the anchors
        let only = |p: &str| Regex::new(p).unwrap().literal_only;
        assert!(only("Smith") && only("^Smith") && only("Smith$") && only("^Smith$"));
        assert!(only("/d4[0-9]/student18$") && only("^a.[^b]") && only("^a.$"));
        assert!(!only("Smith.*$") && !only("^a.b*") && !only("^ab(c|d)*e$") && !only("a.b"));
        assert_eq!(Regex::with_flags("SmiTH", "i").unwrap().literal, within("smith"));
    }

    #[test]
    fn anchored_literals_are_tested_in_place_with_and_without_the_i_flag() {
        let re = Regex::new("/d4[0-9]/student18$").unwrap();
        assert!(re.is_match("http://e/d42/student18"));
        assert!(!re.is_match("http://e/d42/student180"));
        assert!(!re.is_match("http://e/d52/student18"));
        let re = Regex::with_flags("^ÉCOLE", "i").unwrap();
        assert!(re.is_match("école normale") && !re.is_match("une école"));
        let re = Regex::with_flags("STUDENT18$", "i").unwrap();
        assert!(re.is_match("d4/Student18") && !re.is_match("Student180"));
        let re = Regex::with_flags("^Ab$", "i").unwrap();
        assert!(re.is_match("aB") && !re.is_match("aBb") && !re.is_match("a"));
        let re = Regex::with_flags("mit", "i").unwrap();
        assert!(re.is_match("SMITH") && !re.is_match("SMIHT"));
    }

    /// The matcher this module had before the simulation: a direct
    /// transcription of what each construct means, exponential on nested
    /// quantifiers. Tries `node` at `pos` and calls `k` with the position
    /// after each way it can match.
    fn backtrack(node: &Node, input: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
        match node {
            Node::Empty => k(pos),
            Node::Char(c) => input.get(pos) == Some(c) && k(pos + 1),
            Node::AnyChar => pos < input.len() && k(pos + 1),
            Node::Class { negated, items } => input
                .get(pos)
                .is_some_and(|&c| items.iter().any(|i| i.contains(c)) != *negated && k(pos + 1)),
            Node::StartAnchor => pos == 0 && k(pos),
            Node::EndAnchor => pos == input.len() && k(pos),
            Node::Concat(nodes) => match nodes.split_first() {
                None => k(pos),
                Some((head, tail)) => backtrack(head, input, pos, &mut |next| {
                    backtrack(&Node::Concat(tail.to_vec()), input, next, k)
                }),
            },
            Node::Alternate(branches) => branches.iter().any(|b| backtrack(b, input, pos, k)),
            Node::Repeat { node: inner, quantifier } => {
                // One more round must consume something, or `(a*)*` never ends.
                let again = |k: &mut dyn FnMut(usize) -> bool| {
                    backtrack(inner, input, pos, &mut |next| {
                        next != pos && backtrack(node, input, next, k)
                    })
                };
                match quantifier {
                    Quantifier::Optional => backtrack(inner, input, pos, k) || k(pos),
                    Quantifier::Star => again(k) || k(pos),
                    Quantifier::Plus => {
                        let star = Node::Repeat { node: inner.clone(), quantifier: Quantifier::Star };
                        backtrack(inner, input, pos, &mut |next| backtrack(&star, input, next, k))
                    }
                }
            }
        }
    }

    fn oracle(pattern: &str, fold: bool, input: &str) -> bool {
        let node = parse(pattern, fold).unwrap();
        let fold_input = |c| if fold { fold_char(c) } else { c };
        let chars: Vec<char> = input.chars().map(fold_input).collect();
        (0..=chars.len()).any(|start| backtrack(&node, &chars, start, &mut |_| true))
    }

    /// Well-formed patterns over a small alphabet, every construct of
    /// the grammar included.
    fn arb_pattern() -> impl Strategy<Value = String> {
        let atom = proptest::sample::select(
            &["a", "b", "B", "c", ".", "^", "$", "[ab]", "[^a]", "[a-c]", "\\d", "\\.", ""][..],
        )
        .prop_map(str::to_string);
        atom.prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 2..4).prop_map(|parts| parts.concat()),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
                (inner, proptest::sample::select(&["*", "+", "?"][..]))
                    .prop_map(|(a, q)| format!("({a}){q}")),
            ]
        })
    }

    /// Patterns that open with `^run`, close with `run$`, or both, with
    /// classes, groups or any generated pattern between: every kind of
    /// anchored literal, and near misses (an empty run, a lone anchor).
    fn arb_anchored() -> impl Strategy<Value = String> {
        let between = prop_oneof![
            proptest::sample::select(&["", "[ab]", "[^a]", ".", "\\d", "(a|b)*", "[a-c]+"][..])
                .prop_map(str::to_string),
            arb_pattern(),
        ];
        (any::<bool>(), "[abB.]{0,3}", between, "[abB1]{0,3}", any::<bool>()).prop_map(
            |(start, head, between, tail, end)| {
                let head = head.replace('.', "\\.");
                let (start, end) = (if start { "^" } else { "" }, if end { "$" } else { "" });
                format!("{start}{head}{between}{tail}{end}")
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn anchored_literal_tests_agree_with_the_simulation_and_with_backtracking(
            pattern in arb_anchored(),
            input in "[a-cAB1.]{0,10}",
            fold in any::<bool>(),
        ) {
            let re = Regex::with_flags(&pattern, if fold { "i" } else { "" }).unwrap();
            let unfiltered = re.is_match_unfiltered(&input);
            prop_assert_eq!(
                re.is_match(&input), unfiltered,
                "/{}/ on {:?}, literal {:?}", pattern, input, re.literal
            );
            prop_assert_eq!(unfiltered, oracle(&pattern, fold, &input), "/{}/ on {:?}", pattern, input);
        }

        #[test]
        fn the_literal_pre_check_never_changes_an_answer(
            pattern in arb_pattern(),
            input in "[a-cAB1.]{0,10}",
            fold in any::<bool>(),
        ) {
            let re = Regex::with_flags(&pattern, if fold { "i" } else { "" }).unwrap();
            prop_assert_eq!(
                re.is_match(&input),
                re.is_match_unfiltered(&input),
                "/{}/ on {:?}, literal {:?}", pattern, input, re.literal
            );
        }

        #[test]
        fn the_simulation_agrees_with_backtracking(
            pattern in arb_pattern(),
            input in "[a-cAB1.]{0,10}",
            fold in any::<bool>(),
        ) {
            let re = Regex::with_flags(&pattern, if fold { "i" } else { "" }).unwrap();
            prop_assert_eq!(
                re.is_match_unfiltered(&input),
                oracle(&pattern, fold, &input),
                "/{}/ on {:?}", pattern, input
            );
        }
    }
}
