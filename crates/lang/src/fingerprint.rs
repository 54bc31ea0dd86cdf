//! Statement fingerprinting: normalizes a QUEL program so executions
//! that differ only in their literals aggregate under one entry in the
//! statement store (the pg_stat_statements idea).
//!
//! The normal form is the token stream with every literal replaced by
//! `?`, keywords lowercased, and whitespace/comments collapsed to
//! single spaces — so `retrieve (p.name) where p.name = "Bach"` and
//! `RETRIEVE (p.name) WHERE p.name = "Telemann"` share a fingerprint.
//! Programs that do not lex (the store also sees failed statements'
//! text upstream of parsing) fall back to the raw text with whitespace
//! collapsed. Either way the result is bounded: anything longer than
//! [`MAX_FINGERPRINT_CHARS`] is truncated with a hash suffix so hostile
//! input cannot bloat the store, and nothing in here can panic.

use std::hash::{Hash, Hasher};

use crate::lexer::{lex, Sym, Token, TokenKind};

/// Upper bound on fingerprint length, in characters.
pub const MAX_FINGERPRINT_CHARS: usize = 512;

/// Computes the normalized fingerprint of a QUEL program: lexes it and
/// takes [`of_tokens`], or [`of_unlexable`] when it does not lex.
pub fn fingerprint(text: &str) -> String {
    match lex(text) {
        Ok(tokens) => of_tokens(&tokens),
        Err(_) => of_unlexable(text),
    }
}

/// The fingerprint of an already-lexed program: the executor passes the
/// tokens it is about to parse, so a recorded program is lexed once.
pub fn of_tokens(tokens: &[Token]) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(tokens.len());
    for t in tokens {
        let part = match &t.kind {
            TokenKind::Integer(_) | TokenKind::Float(_) | TokenKind::Str(_) => "?".into(),
            TokenKind::Keyword(k) => format!("{k:?}").to_ascii_lowercase(),
            TokenKind::Ident(name) => name.clone(),
            TokenKind::Sym(s) => sym_text(*s).into(),
            TokenKind::Eof => continue,
        };
        parts.push(part);
    }
    bound(parts.join(" "))
}

/// The fingerprint of a program that does not lex (bad escape, stray
/// byte, non-ASCII): the raw text, whitespace-collapsed, so the entry
/// still groups repeated submissions of the same broken program.
pub fn of_unlexable(text: &str) -> String {
    bound(text.split_whitespace().collect::<Vec<_>>().join(" "))
}

/// Truncates over-long normal forms, appending a hash *of the normal
/// form* so distinct giants stay distinct while literal-only variants
/// of one giant still collapse.
fn bound(normalized: String) -> String {
    if normalized.chars().count() <= MAX_FINGERPRINT_CHARS {
        return normalized;
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    normalized.hash(&mut hasher);
    let prefix: String = normalized
        .chars()
        .take(MAX_FINGERPRINT_CHARS - 20)
        .collect();
    format!("{prefix}…#{:016x}", hasher.finish())
}

fn sym_text(s: Sym) -> &'static str {
    match s {
        Sym::LParen => "(",
        Sym::RParen => ")",
        Sym::Comma => ",",
        Sym::Dot => ".",
        Sym::Eq => "=",
        Sym::Ne => "!=",
        Sym::Lt => "<",
        Sym::Le => "<=",
        Sym::Gt => ">",
        Sym::Ge => ">=",
        Sym::Plus => "+",
        Sym::Minus => "-",
        Sym::Star => "*",
        Sym::Slash => "/",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_collapse_to_one_fingerprint() {
        let a = fingerprint("range of p is PERSON\nretrieve (p.name) where p.name = \"Bach\"");
        let b = fingerprint("range of p is PERSON retrieve (p.name) where p.name = \"Telemann\"");
        assert_eq!(a, b);
        assert_eq!(
            a,
            "range of p is PERSON retrieve ( p . name ) where p . name = ?"
        );
        assert_eq!(
            fingerprint("retrieve (n.x) where n.x = 42"),
            fingerprint("retrieve (n.x) where n.x = 2.5"),
            "integer and float literals both normalize to ?"
        );
    }

    #[test]
    fn keywords_fold_case_identifiers_do_not() {
        assert_eq!(
            fingerprint("RETRIEVE (Person.name)"),
            "retrieve ( Person . name )"
        );
        assert_ne!(
            fingerprint("retrieve (PERSON.name)"),
            fingerprint("retrieve (person.name)")
        );
    }

    #[test]
    fn comments_and_whitespace_do_not_matter() {
        let a = fingerprint("retrieve (p.name) -- find them all\n");
        let b = fingerprint("  retrieve\t(p.name)");
        assert_eq!(a, b);
    }

    #[test]
    fn unlexable_input_falls_back_without_panicking() {
        // Non-ASCII outside strings is a lex error; unicode must not
        // panic the fingerprinter (byte-slicing would).
        let f = fingerprint("retrieve (p.ñame) 🎵 where");
        assert_eq!(f, "retrieve (p.ñame) 🎵 where");
        let g = fingerprint("\"unterminated");
        assert_eq!(g, "\"unterminated");
        assert_eq!(fingerprint(""), "");
    }

    #[test]
    fn hostile_lengths_are_bounded() {
        // A lexable monster program.
        let long = format!("retrieve ( {} )", "x , ".repeat(100_000));
        let f = fingerprint(&long);
        assert!(f.chars().count() <= MAX_FINGERPRINT_CHARS, "{}", f.len());
        // Distinct monsters keep distinct fingerprints via the hash tail.
        let long2 = format!("retrieve ( {} y )", "x , ".repeat(100_000));
        assert_ne!(f, fingerprint(&long2));
        // Same monster, different literals: still one entry.
        let with_lit = |v: i64| format!("retrieve ( {} {v} )", "x , ".repeat(100_000));
        assert_eq!(fingerprint(&with_lit(1)), fingerprint(&with_lit(2)));
        // An unlexable monster is bounded too, without slicing through
        // a multi-byte character.
        let evil = "é".repeat(100_000);
        assert!(fingerprint(&evil).chars().count() <= MAX_FINGERPRINT_CHARS);
    }
}
