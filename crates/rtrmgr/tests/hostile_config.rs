//! No configuration text panics the parser: arbitrary bytes, text over
//! the language's own alphabet, and token-level mutations of a valid
//! configuration all end in `Ok` or `Err`.

use proptest::prelude::*;
use xorp_rtrmgr::config::parse;

const VALID: &str = r#"
# A router with two peers, policies and an interface.
protocols {
    bgp {
        local-as: 65000
        router-id: 10.0.0.1
        peer 192.0.2.1 {
            as: 65001
            import: "if metric > 10 then reject; endif accept;"
            damping: true
        }
        peer 192.0.2.2 {
            as: 65002
            enabled: false
        }
    }
    rip {
        interface eth0 { }
    }
}
interfaces {
    interface eth0 {
        address: 10.0.0.1
        prefix: 10.0.0.0/24
        mtu: 1500
    }
}
"#;

/// Words and values a mutation may splice in: the language's punctuation,
/// its keywords, and values at and beyond their types' edges.
const VOCAB: &str = "{ } : \" # protocols bgp peer interface as local-as 0 4294967295 \
    4294967296 10.0.0.0/33 300.0.0.1 ::1 true \"x\"";

/// `VALID` split into tokens (each line's words, then a newline), edited
/// by `ops`, and joined again.  Each op is `(kind, i, j)`: delete token
/// `i`, duplicate it, swap it with token `j`, replace it with a vocabulary
/// word, insert one before it, or keep only the first `i` characters.
fn mutated(ops: &[(u8, usize, usize)]) -> String {
    let mut toks: Vec<String> = VALID
        .lines()
        .flat_map(|line| line.split_whitespace().chain(["\n"]))
        .map(String::from)
        .collect();
    let vocab: Vec<&str> = VOCAB.split_whitespace().collect();
    let mut cut = None;
    for &(kind, i, j) in ops {
        if toks.is_empty() {
            break;
        }
        let (at, n) = (i % toks.len(), toks.len());
        let word = vocab[j % vocab.len()].to_string();
        match kind {
            0 => drop(toks.remove(at)),
            1 => toks.insert(at, toks[at].clone()),
            2 => toks.swap(at, j % n),
            3 => toks[at] = word,
            4 => toks.insert(at, word),
            _ => cut = Some(i),
        }
    }
    let text = toks.join(" ");
    match cut {
        Some(i) => text.chars().take(i % (text.len() + 1)).collect(),
        None => text,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn config_parse_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn config_parse_never_panics_on_text_over_its_alphabet(
        text in "[a-z0-9 {}:#\"./\n-]{0,200}",
    ) {
        let _ = parse(&text);
    }

    #[test]
    fn config_parse_never_panics_on_mutated_sources(
        ops in prop::collection::vec((0u8..6, any::<usize>(), any::<usize>()), 1..8),
    ) {
        let _ = parse(&mutated(&ops));
    }
}

#[test]
fn the_unmutated_source_parses() {
    assert!(parse(VALID).is_ok());
    assert_eq!(parse(&mutated(&[])).unwrap(), parse(VALID).unwrap());
}
