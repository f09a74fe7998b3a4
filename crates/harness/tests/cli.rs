//! The `xorp-router` command line, driven as an operator would.

use std::process::Command;

/// A batch is one XRL frame and the wire counts its rows in 16 bits: a
/// larger `--batch-size` is refused before the router starts, instead of
/// silently applying `n mod 65536` rows of every frame.
#[test]
fn xorp_router_refuses_a_batch_size_the_wire_cannot_count() {
    let out = Command::new(env!("CARGO_BIN_EXE_xorp-router"))
        .args(["--example-config", "--batch-size", "65536"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--batch-size 65536 exceeds 65535"),
        "{stderr}"
    );
}

/// A peer policy that does not compile is a configuration error: the
/// router exits 1 naming the peer and the compiler's complaint, before
/// any process starts, instead of panicking on the BGP thread.
#[test]
fn xorp_router_refuses_a_policy_that_does_not_compile() {
    let config = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad_policy.boot");
    std::fs::write(
        &config,
        r#"
protocols {
    bgp {
        local-as: 65000
        router-id: 192.168.0.1
        peer 192.168.1.1 {
            as: 65001
            import: "not a policy"
        }
    }
}
"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_xorp-router"))
        .arg(&config)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("peer 192.168.1.1: import policy error"),
        "{stderr}"
    );
}
