//! The `bfpp` CLI answers a zero count with a typed error: exit code 1
//! and a message naming the flag, never a panic from a constructor's
//! assert.

use std::process::Command;

#[test]
fn zero_counts_exit_1_naming_the_flag() {
    let cases: [&[&str]; 11] = [
        &["simulate", "--nodes", "0"],
        &["simulate", "--dp", "0"],
        &["simulate", "--tp", "0"],
        &["simulate", "--pp", "0"],
        &["simulate", "--loops", "0"],
        &["simulate", "--mb", "0"],
        &["simulate", "--smb", "0"],
        &["search", "--model", "52b", "--batch", "48", "--nodes", "0"],
        &["plan", "--gpus", "0"],
        &["viz", "--pp", "0"],
        &["viz", "--loops", "0"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bfpp"))
            .args(args)
            .output()
            .expect("bfpp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert_eq!(out.status.code(), Some(1), "bfpp {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "bfpp {args:?} must name {flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "bfpp {args:?}: {stderr}");
    }
}
