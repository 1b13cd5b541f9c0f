//! The `yafim-cli` binary from the outside: every Phase-II plan prints the
//! summary sequential Apriori prints, a flag value the CLI cannot use or an
//! argument it does not read is one line on stderr and a nonzero exit,
//! never a silent default, and a reader that goes away ends the output
//! without a word.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use yafim::data::{write_dat, PaperDataset};
use yafim::{Miner, Phase2Plan};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_yafim-cli"))
        .args(args)
        .output()
        .expect("yafim-cli runs")
}

/// A small MushRoom-shaped input, one file per test (tests run in parallel).
fn input(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("yafim-cli-{test}-{}.dat", std::process::id()));
    write_dat(&path, &PaperDataset::Mushroom.generate_scaled(0.02)).expect("temp dir writable");
    path
}

fn mine(input: &str, tail: &[&str]) -> Output {
    let head = ["mine", "--input", input, "--support", "40%"];
    cli(&[&head[..], tail].concat())
}

/// Every distributed miner with the flags that spell it.
fn distributed_miners() -> impl Iterator<Item = (Miner, Vec<&'static str>)> {
    let distributed = Miner::ALL.into_iter().filter(|m| m.is_distributed());
    distributed.map(|miner| {
        let mut flags = vec!["--miner", miner.name()];
        if let Some(phase2) = miner.plan() {
            flags.extend(["--phase2", phase2.name()]);
        }
        (miner, flags)
    })
}

/// The summary line without the miner's name in front.
fn summary(out: &Output) -> String {
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().next().expect("a summary line");
    assert!(line.contains("frequent itemsets"), "{line}");
    line.split_once(": ")
        .expect("`miner: summary`")
        .1
        .to_string()
}

/// Exactly one line on stderr, a nonzero exit, nothing mined.
fn refusal(out: &Output) -> String {
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    stderr
}

#[test]
fn every_phase2_plan_prints_the_sequential_summary() {
    let file = input("plans");
    let file = file.to_str().expect("utf-8 temp path");
    let reference = summary(&mine(file, &["--miner", "sequential"]));
    for plan in Phase2Plan::ALL {
        let tail = ["--nodes", "4", "--cores", "2", "--phase2", plan.name()];
        assert_eq!(summary(&mine(file, &tail)), reference, "{plan:?}");
    }
    std::fs::remove_file(file).expect("own temp file");
}

#[test]
fn the_support_bound_counts_every_line_of_the_file() {
    // Four rows {1, 2, 3}, three each of {1}, {2} and {3}, two empty lines:
    // at MinSup 4 the triple is frequent. The projection keeps only the
    // four rows with two frequent items; a bound with their count for
    // `σ(∅)` instead of the file's 15 lines would put {1, 2, 3} at
    // 4 + 4 + 4 − 7 − 7 − 7 + 4 = −5 and drop it.
    let mut clean = vec!["1 2 3"; 4];
    clean.extend(["1", "2", "3"].repeat(3));
    clean.extend(["", ""]);
    // The same file with CRLF line ends and each line's first item again.
    let dirty: Vec<String> = clean
        .iter()
        .map(|line| match line.split(' ').next() {
            Some(first) if !first.is_empty() => format!("{line} {first}\r"),
            _ => "\r".to_string(),
        })
        .collect();
    for (name, lines) in [("clean", clean.join("\n")), ("dirty", dirty.join("\n"))] {
        let path =
            std::env::temp_dir().join(format!("yafim-cli-bound-{name}-{}.dat", std::process::id()));
        std::fs::write(&path, lines + "\n").expect("temp dir writable");
        let file = path.to_str().expect("utf-8 temp path");
        let run = |tail: &[&str]| {
            summary(&cli(
                &[&["mine", "--input", file, "--support", "4"], tail].concat()
            ))
        };
        let reference = run(&["--miner", "sequential"]);
        assert_eq!(
            reference, "7 frequent itemsets (longest 3), levels [3, 3, 1]",
            "{name}"
        );
        for plan in ["opt", "bitmap"] {
            assert_eq!(run(&["--phase2", plan]), reference, "{name} {plan}");
        }
        std::fs::remove_file(file).expect("own temp file");
    }
}

#[test]
fn an_unknown_phase2_mode_is_one_line_and_exit_1() {
    let file = input("turbo");
    let file = file.to_str().expect("utf-8 temp path");
    let out = mine(file, &["--phase2", "turbo"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(refusal(&out).contains("unknown --phase2 mode `turbo`"));
    // A real mode next to a miner that has no Phase II is refused too.
    let out = mine(file, &["--miner", "mapreduce", "--phase2", "opt"]);
    assert!(refusal(&out).contains("--phase2"));
    std::fs::remove_file(file).expect("own temp file");
}

#[test]
fn an_unknown_miner_is_one_line_and_exit_2() {
    // Refused before the input is opened: the file need not exist.
    let out = mine("no-such-file.dat", &["--miner", "turbo"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(refusal(&out), "unknown miner: turbo\n");
}

#[test]
fn an_argument_the_command_does_not_read_is_one_line_and_exit_1() {
    let file = input("unknown");
    let file = file.to_str().expect("utf-8 temp path");
    for tail in [
        &["--suport", "10%"][..],
        &["--bogus-flag"],
        &["--memory-fraction", "0.5"],
        &["--locality-wait", "0"],
        &["stray"],
    ] {
        let out = mine(file, tail);
        assert_eq!(out.status.code(), Some(1), "{tail:?}");
        assert_eq!(
            refusal(&out),
            format!("unknown argument for mine: {}\n", tail[0])
        );
    }
    let out = cli(&["compare", "--input", file, "--support", "40%", "--report"]);
    assert_eq!(refusal(&out), "unknown argument for compare: --report\n");
    // The bare flag the repo benchmark still passes is read and ignored.
    let plain = summary(&mine(file, &[]));
    assert_eq!(summary(&mine(file, &["--critical-path"])), plain);
    std::fs::remove_file(file).expect("own temp file");
}

#[test]
fn a_support_of_nothing_or_more_than_everything_is_refused() {
    for support in ["0", "0%", "101%", "NaN%", "-1", "ten"] {
        let out = cli(&["mine", "--input", "no-such-file.dat", "--support", support]);
        assert_ne!(out.status.code(), Some(0), "{support}");
        assert!(refusal(&out).contains(support), "{support}");
    }
}

#[test]
fn each_usage_line_names_exactly_the_flags_its_command_reads() {
    let usage = String::from_utf8(cli(&[]).stderr).expect("utf-8 usage");
    let mut commands: Vec<(String, Vec<String>)> = Vec::new();
    for line in usage.lines().skip(1) {
        if let Some(rest) = line.trim_start().strip_prefix("yafim-cli ") {
            let name = rest.split_whitespace().next().expect("a command");
            commands.push((name.to_string(), Vec::new()));
        }
        let flags = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        let flags = flags.filter(|w| w.starts_with("--")).map(str::to_string);
        commands
            .last_mut()
            .expect("a command line first")
            .1
            .extend(flags);
    }
    let names: Vec<&str> = commands.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["generate", "mine", "compare"]);
    let mut every: Vec<String> = commands.iter().flat_map(|(_, f)| f.clone()).collect();
    every.extend(["--memory-fraction", "--locality-wait", "--bogus"].map(String::from));
    every.sort();
    every.dedup();
    for (command, listed) in &commands {
        for flag in &every {
            // A flag the command reads gets as far as the missing
            // required ones (usage, exit 2); any other is refused.
            let out = cli(&[command.as_str(), flag.as_str()]);
            if listed.contains(flag) {
                assert_eq!(out.status.code(), Some(2), "{command} {flag}: {out:?}");
            } else {
                assert_eq!(out.status.code(), Some(1), "{command} {flag}");
                let line = format!("unknown argument for {command}: {flag}\n");
                assert_eq!(refusal(&out), line);
            }
        }
    }
}

#[test]
fn every_distributed_miner_refuses_an_aborting_fault_plan_in_one_line() {
    let file = input("abort");
    let file = file.to_str().expect("utf-8 temp path");
    let plan = std::env::temp_dir().join(format!("yafim-cli-abort-{}.json", std::process::id()));
    std::fs::write(&plan, r#"{"seed": 1, "task_crash_prob": 1.0}"#).expect("temp dir writable");
    let plan = plan.to_str().expect("utf-8 temp path");
    for (miner, flags) in distributed_miners() {
        let out = mine(file, &[&flags[..], &["--fault-plan", plan]].concat());
        assert_eq!(out.status.code(), Some(1), "{miner:?}: {out:?}");
        let start = format!("{} miner refused the run: stage `", miner.name());
        let line = refusal(&out);
        assert!(line.starts_with(&start), "{miner:?}: {line}");
    }
    std::fs::remove_file(file).expect("own temp file");
    std::fs::remove_file(plan).expect("own temp file");
}

#[test]
fn bad_numeric_flags_are_refused_not_defaulted() {
    let file = input("flags");
    let file = file.to_str().expect("utf-8 temp path");
    for (flag, value) in [
        ("--nodes", "abc"),
        ("--nodes", "0"),
        ("--nodes", "4294967295"),
        ("--cores", "x"),
        ("--cores", "4294967295"),
        ("--top", "k"),
        ("--rules", "lots"),
    ] {
        let out = mine(file, &[flag, value]);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let line = refusal(&out);
        assert!(line.contains(flag) && line.contains(value), "{line}");
    }
    // Past 2^20 virtual cores, whether or not the product fits a `u32`.
    for (nodes, cores) in [("65536", "65536"), ("4294967295", "1"), ("1024", "1025")] {
        let out = mine(file, &["--nodes", nodes, "--cores", cores]);
        assert_eq!(out.status.code(), Some(1), "{nodes} x {cores}");
        assert!(refusal(&out).contains(&format!("{nodes} x {cores}")));
    }
    assert!(mine(file, &["--nodes", "1000"]).status.success());
    let generate = ["generate", "--dataset", "mushroom", "--out", file];
    let out = cli(&[&generate[..], &["--scale", "big"]].concat());
    assert!(refusal(&out).contains("--scale"));
    std::fs::remove_file(file).expect("own temp file");
}

#[test]
fn an_out_of_range_fault_plan_is_one_line_and_exit_1() {
    let file = input("badplan");
    let file = file.to_str().expect("utf-8 temp path");
    let plan = std::env::temp_dir().join(format!("yafim-cli-badplan-{}.json", std::process::id()));
    let plan = plan.to_str().expect("utf-8 temp path");
    // A value out of its field's range, and node ids the cluster lacks: the
    // default one has 12 nodes, numbered 0 to 11.
    for (json, flags, field, says) in [
        (
            r#"{"seed": 1, "resubmit_delay": -1}"#,
            &[][..],
            "resubmit_delay",
            "must be ",
        ),
        (
            r#"{"seed": 1, "node_losses": [[99, 1.0]]}"#,
            &[],
            "node_losses",
            "names node 99, but --nodes is 12",
        ),
        (
            r#"{"seed": 1, "slow_nodes": [[0, 2.0], [12, 2.0]]}"#,
            &[],
            "slow_nodes",
            "names node 12, but --nodes is 12",
        ),
        (
            r#"{"seed": 1, "node_losses": [[3, 1.0]]}"#,
            &["--nodes", "3"],
            "node_losses",
            "names node 3, but --nodes is 3",
        ),
    ] {
        std::fs::write(plan, json).expect("temp dir writable");
        let out = mine(file, &[&["--fault-plan", plan][..], flags].concat());
        assert_eq!(out.status.code(), Some(1), "{json}");
        let line = refusal(&out);
        let start = format!("{plan}: invalid fault plan: fault plan field `{field}` {says}");
        assert!(line.starts_with(&start), "{line}");
    }
    std::fs::remove_file(file).expect("own temp file");
    std::fs::remove_file(plan).expect("own temp file");
}

#[test]
fn a_checkpoint_block_with_no_replica_left_is_one_line_and_exit_1() {
    let file = input("ckpt");
    let file = file.to_str().expect("utf-8 temp path");
    let plan = std::env::temp_dir().join(format!("yafim-cli-ckpt-{}.json", std::process::id()));
    let plan = plan.to_str().expect("utf-8 temp path");
    // Three of four nodes die at 3 s: some checkpoint block loses every
    // replica, and the lineage behind it was truncated.
    let json = r#"{"checkpoint_interval": 1, "node_losses": [[0, 3.0], [1, 3.0], [2, 3.0]]}"#;
    std::fs::write(plan, json).expect("temp dir writable");
    for phase2 in ["opt", "bitmap"] {
        let flags = ["--nodes", "4", "--cores", "2", "--phase2", phase2];
        let out = mine(file, &[&["--fault-plan", plan][..], &flags].concat());
        assert_eq!(out.status.code(), Some(1), "{phase2}: {out:?}");
        let line = refusal(&out);
        let says = "spark miner refused the run: data integrity failure: checkpoint rdd";
        assert!(line.starts_with(says), "{phase2}: {line}");
    }
    std::fs::remove_file(file).expect("own temp file");
    std::fs::remove_file(plan).expect("own temp file");
}

#[test]
fn a_checkpoint_the_columnar_store_reads_outlives_later_checkpoints() {
    // Both count pass 2 by rows, so the bitmap plan builds its columnar
    // store over the checkpoint taken after pass 2, and Medical then runs
    // two bitmap jobs. A later checkpoint must not delete those blocks: the
    // store's lineage runs through them. T10 also keeps them when three of
    // four nodes die at 3 s, after they were written.
    let plan = std::env::temp_dir().join(format!("yafim-cli-cols-{}.json", std::process::id()));
    let plan = plan.to_str().expect("utf-8 temp path");
    let every_job = r#"{"checkpoint_interval": 1}"#;
    let and_loss = r#"{"checkpoint_interval": 1, "node_losses": [[0, 3.0], [1, 3.0], [2, 3.0]]}"#;
    for (data, scale, support, plans) in [
        (
            PaperDataset::T10I4D100K,
            0.25,
            "0.25%",
            &[every_job, and_loss][..],
        ),
        (PaperDataset::Medical, 0.1, "3%", &[every_job]),
    ] {
        let path = std::env::temp_dir().join(format!("yafim-cli-cols-{}.dat", std::process::id()));
        write_dat(&path, &data.generate_scaled(scale)).expect("temp dir writable");
        let file = path.to_str().expect("utf-8 temp path");
        let flags = [
            "--support",
            support,
            "--phase2",
            "bitmap",
            "--nodes",
            "4",
            "--cores",
            "2",
        ];
        let run = |tail: &[&str]| cli(&[&["mine", "--input", file][..], &flags, tail].concat());
        let clean = summary(&run(&[]));
        for json in plans {
            std::fs::write(plan, json).expect("temp dir writable");
            let faulty = summary(&run(&["--fault-plan", plan]));
            assert_eq!(faulty, clean, "{data:?} {json}");
        }
        std::fs::remove_file(file).expect("own temp file");
    }
    std::fs::remove_file(plan).expect("own temp file");
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let file = input("pipe");
    let file = file.to_str().expect("utf-8 temp path");
    // Every itemset and every rule: far more than a pipe holds, so most of
    // it is written after the reader has gone.
    let head = [
        "mine",
        "--input",
        file,
        "--support",
        "40%",
        "--miner",
        "fpgrowth",
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_yafim-cli"))
        .args([&head[..], &["--top", "1000000", "--rules", "0"]].concat())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("yafim-cli runs");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("one line");
    assert!(first.contains("frequent itemsets"), "{first}");
    let out = child.wait_with_output().expect("yafim-cli exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success() && stderr.is_empty(), "{out:?}");
    std::fs::remove_file(file).expect("own temp file");
}
