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
