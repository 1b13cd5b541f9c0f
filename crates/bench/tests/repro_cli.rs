//! `repro`'s argument handling, on the real binary.

use std::process::Command;

#[test]
fn an_unknown_name_exits_2_and_lists_the_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "nonsense"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran, nothing was written");
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(err.starts_with("unknown experiment `nonsense`\n"), "{err}");

    let list = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("repro runs");
    assert!(list.status.success());
    let listed = String::from_utf8(list.stdout).expect("utf-8");
    assert_eq!(listed.lines().count(), 12);
    for line in listed.lines() {
        let name = line.split(':').next().expect("name: files");
        assert!(
            err.contains(&format!(" {name}")),
            "{name} missing in: {err}"
        );
    }
}
