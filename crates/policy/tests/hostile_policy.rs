//! No policy source panics the compiler, and no program that compiles
//! panics the VM: arbitrary bytes, text over the language's own alphabet,
//! and token-level mutations of valid policies, each run against a sample
//! route when it compiles.

use std::net::{IpAddr, Ipv4Addr};

use proptest::prelude::*;
use xorp_net::{AsPath, Community, PathAttributes, ProtocolId, RouteEntry};
use xorp_policy::compile;

const VALID: &[&str] = &[
    "if metric > 10 then reject; endif accept;",
    r#"if protocol == "ebgp" && aspath contains 65002 && network within 10.0.0.0/8 then
           set localpref 300;
           add-tag 42;
           accept;
       else
           set med med + 5;
           pass;
       endif"#,
    "if !(community contains 65001:100) || nexthop within 192.0.2.0/24 then
         set aspath-prepend 65000; set origin 2; set admin-distance 30;
     endif
     if aspath-len >= 2 then set community community; set tag tag; endif
     reject;",
];

/// Words a mutation may splice in: keywords, attributes, operators, and
/// literals at and beyond their types' edges.
const VOCAB: &str = "if then else endif set add-tag accept reject pass contains within true \
    false metric localpref med origin aspath aspath-len aspath-prepend community tag network \
    nexthop protocol admin-distance == != < <= > >= && || ! + - ( ) ; 0 4294967295 4294967296 \
    65001:100 99999:1 10.0.0.0/8 10.0.0.0/33 2001:db8::/32 1:2/200 192.0.2.1 300.1.1.1 \"x\" \" #";

/// One of the valid policies split into whitespace-separated tokens,
/// edited by `ops`, and joined again.  Each op is `(kind, i, j)`: delete
/// token `i`, duplicate it, swap it with token `j`, replace it with a
/// vocabulary word, insert one before it, or keep only the first `i`
/// characters.
fn mutated(base: usize, ops: &[(u8, usize, usize)]) -> String {
    let mut toks: Vec<String> = VALID[base % VALID.len()]
        .split_whitespace()
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

fn sample_route() -> RouteEntry<Ipv4Addr> {
    let mut attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)));
    attrs.as_path = AsPath::from_sequence([65001, 65002]);
    attrs.med = Some(50);
    attrs.communities = vec![Community::new(65001, 100)];
    attrs.tags = vec![7];
    RouteEntry::new(
        "10.1.0.0/16".parse().unwrap(),
        attrs.shared(),
        5,
        ProtocolId::Ebgp,
    )
}

/// Compile `src` and, when it compiles, run it on the sample route.
fn compile_and_run(src: &str) {
    if let Ok(program) = compile(src) {
        let _ = program.run(&mut sample_route());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn policy_compile_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        compile_and_run(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn policy_compile_never_panics_on_text_over_its_alphabet(
        text in "[a-z0-9 ()!=<>&|+;:./\"#\n-]{0,200}",
    ) {
        compile_and_run(&text);
    }

    #[test]
    fn policy_compile_never_panics_on_mutated_sources(
        base in 0usize..3,
        ops in prop::collection::vec((0u8..6, any::<usize>(), any::<usize>()), 1..8),
    ) {
        compile_and_run(&mutated(base, &ops));
    }
}

#[test]
fn the_unmutated_sources_compile_and_run() {
    for base in 0..VALID.len() {
        let program = compile(&mutated(base, &[])).expect("a valid policy");
        assert!(program.run(&mut sample_route()).is_ok(), "policy {base}");
    }
}
