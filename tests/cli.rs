//! The `bfpp` CLI answers a zero count, or a node count whose GPUs
//! overflow a `u32`, with a typed error: exit code 1 and a message
//! naming the flag, never a panic from a constructor's assert or an
//! empty answer.

use std::process::Command;

#[test]
fn zero_counts_exit_1_naming_the_flag() {
    let cases: [&[&str]; 13] = [
        &["simulate", "--nodes", "0"],
        &["simulate", "--dp", "0"],
        &["simulate", "--tp", "0"],
        &["simulate", "--pp", "0"],
        &["simulate", "--loops", "0"],
        &["simulate", "--mb", "0"],
        &["simulate", "--smb", "0"],
        &["search", "--model", "52b", "--batch", "48", "--nodes", "0"],
        &["search", "--model", "52b", "--batch", "0"],
        &["plan", "--gpus", "0"],
        &["viz", "--pp", "0"],
        &["viz", "--loops", "0"],
        &["viz", "--mb", "0"],
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

#[test]
fn overflowing_node_count_exits_1_naming_the_flag() {
    // 4294967295 nodes of 8 GPUs: "no feasible configuration", exit 0,
    // in a release build, and an overflow panic in a debug one.
    for ethernet in [false, true] {
        let mut args = vec!["search", "--model", "52b", "--nodes", "4294967295"];
        if ethernet {
            args.push("--ethernet");
        }
        let out = Command::new(env!("CARGO_BIN_EXE_bfpp"))
            .args(&args)
            .output()
            .expect("bfpp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "bfpp {args:?}: {stderr}");
        assert!(stderr.contains("--nodes"), "bfpp {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "bfpp {args:?}: {stderr}");
    }
}
