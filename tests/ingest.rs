//! Ingest, differentially: the byte-level `.dat` scanner against the
//! `split_whitespace` + `str::parse` code it replaced, which lives on here as
//! the oracle, over seeded random and hostile input; and the CLI on files no
//! generator would write.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use yafim::cluster::Lines;
use yafim::data::rng::StdRng;
use yafim::data::{
    from_lines, read_canonical_text, read_dat, to_lines, to_text, write_dat, PaperDataset,
    Transaction,
};
use yafim::parse_transaction;

/// `parse_transaction` as it was before the scanner.
fn old_parse_transaction(line: &str) -> Vec<u32> {
    let mut items: Vec<u32> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    items.sort_unstable();
    items.dedup();
    items
}

/// `from_lines` as it was.
fn old_from_lines<S: AsRef<str>>(lines: &[S]) -> Vec<Transaction> {
    lines
        .iter()
        .map(|l| old_parse_transaction(l.as_ref()))
        .filter(|items| !items.is_empty())
        .collect()
}

/// `read_dat` as it was: a `String` per line off a `BufReader`.
fn old_read_dat(path: &Path) -> std::io::Result<Vec<Transaction>> {
    let reader = std::io::BufReader::new(std::fs::File::open(path)?);
    let lines: Vec<String> = reader.lines().collect::<Result<_, _>>()?;
    Ok(old_from_lines(&lines))
}

/// `to_lines` as it was.
fn old_to_lines(transactions: &[Transaction]) -> Vec<String> {
    transactions
        .iter()
        .map(|t| {
            let items: Vec<String> = t.iter().map(|item| item.to_string()).collect();
            items.join(" ")
        })
        .collect()
}

const ODD_TOKENS: [&str; 16] = [
    "+7",
    "007",
    "0",
    "00",
    "999999999",
    "1000000000",
    "4294967295",
    "4294967296",
    "99999999999999999999",
    "x",
    "-1",
    "+",
    "++3",
    "5+",
    "1e3",
    "12\u{1c}13",
];

/// `\x1c` is among them on purpose: no whitespace to `char::is_whitespace`.
const SEPARATORS: [&str; 11] = [
    " ", " ", " ", "  ", "\t", "\r", "\x0b", "\x0c", "\u{a0}", "\u{2003}", "\x1c",
];

/// Lines one byte away from being their own rendering, and a few that are.
const NEARLY_CANONICAL: [&str; 16] = [
    "0 1 2",
    "007 8 9",
    "00 1",
    "0 01",
    "1 2 ",
    " 1 2",
    "1  2",
    "1\t2",
    "2 1",
    "1 1",
    "+1 2",
    "1 2x",
    "999999998 999999999",
    "999999999 1000000000",
    "1000000000 1000000001",
    "4294967295",
];

/// One line: canonical, blank, or a mix of runs, repeats and odd tokens
/// glued with every kind of space.
fn random_line(rng: &mut StdRng) -> String {
    match rng.gen_range(0..10u32) {
        0 => return String::new(),
        1 => return ["  ", "\t", " \r", "\u{a0}", "\x0c\x0b"][rng.gen_range(0..5usize)].into(),
        2..=4 => {
            let mut item = rng.gen_range(0..50u32);
            let mut tokens = Vec::new();
            for _ in 0..rng.gen_range(1..30u32) {
                tokens.push(item.to_string());
                item += rng.gen_range(1..2000u32);
            }
            return tokens.join(" ");
        }
        _ => {}
    }
    let mut line = String::new();
    if rng.gen_range(0..4u32) == 0 {
        line.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
    }
    let mut item = rng.gen_range(0..100_000u32);
    for _ in 0..rng.gen_range(1..40u32) {
        match rng.gen_range(0..8u32) {
            0 => line.push_str(ODD_TOKENS[rng.gen_range(0..ODD_TOKENS.len())]),
            1 => line.push_str(&rng.gen_range(0..60u32).to_string()),
            2 => line.push_str(&item.to_string()),
            3 | 4 => {
                item = item.saturating_sub(rng.gen_range(1..500u32));
                line.push_str(&item.to_string());
            }
            _ => {
                item += rng.gen_range(1..500u32);
                line.push_str(&item.to_string());
            }
        }
        if rng.gen_range(0..8u32) == 0 {
            line.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
        } else {
            line.push(' ');
        }
    }
    if rng.gen_range(0..2u32) == 0 {
        line.truncate(line.trim_end_matches(' ').len());
    }
    line
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("yafim-ingest-{name}-{}", std::process::id()))
}

/// Is `read` (a text and its line offsets) `lines` joined with a `\n` after
/// each? `Lines::from` is the one join loop, and it refuses offsets that do
/// not cut its text into lines: equal texts and equal lines are equal offsets.
fn is_joined(read: (String, Vec<u64>), lines: &[String]) -> bool {
    let (read, joined) = (Lines::from(read), Lines::from(lines.to_vec()));
    read.text() == joined.text() && read.iter().eq(joined.iter())
}

/// Every reader against the oracle on one file; the text reader on 1, 2 and
/// 8 threads (which only a file of several chunks can tell apart).
fn assert_file_agrees(path: &Path) {
    let expected = old_read_dat(path).expect("oracle reads the file");
    assert_eq!(read_dat(path).expect("read_dat"), expected);
    let lines = old_to_lines(&expected);
    assert_eq!(lines, to_lines(&expected));
    assert_eq!(from_lines(&lines), expected);
    assert!(is_joined(to_text(&expected), &lines));
    for threads in [1, 2, 8] {
        let read = read_canonical_text(path, threads).expect("read_canonical_text");
        assert!(
            is_joined(read, &lines),
            "{threads} threads on {}",
            path.display()
        );
    }
}

#[test]
fn random_lines_parse_as_they_always_did() {
    let mut rng = StdRng::seed_from_u64(14);
    let mut lines: Vec<String> = (0..20_000).map(|_| random_line(&mut rng)).collect();
    lines.extend(NEARLY_CANONICAL.map(String::from));
    for line in &lines {
        assert_eq!(
            parse_transaction(line),
            old_parse_transaction(line),
            "{line:?}"
        );
    }
    let expected = old_from_lines(&lines);
    assert!(expected.len() < lines.len(), "some lines must be dropped");
    assert_eq!(from_lines(&lines), expected);
    assert_eq!(to_lines(&expected), old_to_lines(&expected));
    // A newline inside a "line" is one more space.
    assert_eq!(parse_transaction("3\n1\r\n+2"), vec![1, 2, 3]);
}

/// What YAFIM's block parse does: every line appended to one arena through
/// the public `scan_line`, a line without items leaving an empty row.
#[test]
fn an_arena_of_lines_holds_a_parse_per_line() {
    let mut rng = StdRng::seed_from_u64(20);
    let mut lines: Vec<String> = (0..20_000).map(|_| random_line(&mut rng)).collect();
    lines.extend(NEARLY_CANONICAL.map(String::from));
    let (mut arena, mut ends) = (Vec::new(), Vec::new());
    for line in &lines {
        yafim::data::scan_line(line, &mut arena);
        ends.push(arena.len());
    }
    let mut start = 0;
    let mut empty = 0;
    for (line, &end) in lines.iter().zip(&ends) {
        assert_eq!(arena[start..end], old_parse_transaction(line), "{line:?}");
        assert_eq!(arena[start..end], parse_transaction(line), "{line:?}");
        empty += usize::from(start == end);
        start = end;
    }
    assert!(empty > 1_000, "blank and junk lines must stay rows");
}

#[test]
fn random_files_read_as_they_always_did() {
    let path = temp("random.dat");
    for (seed, newline, trailing) in [(1, "\n", true), (2, "\r\n", true), (3, "\n", false)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lines: Vec<String> = (0..3_000).map(|_| random_line(&mut rng)).collect();
        lines.extend(NEARLY_CANONICAL.map(String::from));
        let mut text = lines.join(newline);
        if trailing {
            text.push_str(newline);
        }
        std::fs::write(&path, text).expect("temp dir writable");
        assert_file_agrees(&path);
    }
    // What the generators write is canonical already: the lines come back
    // as the file has them.
    let tx = PaperDataset::Mushroom.generate_scaled(0.02);
    write_dat(&path, &tx).expect("temp dir writable");
    assert_file_agrees(&path);
    let text = std::fs::read_to_string(&path).expect("just written");
    let (read, offsets) = read_canonical_text(&path, 2).expect("just written");
    assert_eq!(read, text);
    assert_eq!(offsets.len(), tx.len() + 1);
    assert_eq!(read_dat(&path).expect("just written"), tx);
    std::fs::remove_file(&path).expect("own temp file");
}

/// Files of several chunks (64 KiB a chunk at least), so that 1, 2 and 8
/// threads cut them differently: clean, clean without the last newline,
/// clean but for one line in the middle chunk, and dirty throughout.
#[test]
fn files_of_many_chunks_read_the_same_on_any_number_of_threads() {
    let path = temp("chunks.dat");
    let mut rng = StdRng::seed_from_u64(24);
    let clean: Vec<String> = (0..40_000)
        .map(|_| {
            let mut item = rng.gen_range(0..50u32);
            let row = (0..rng.gen_range(1..12u32)).map(|_| {
                item += rng.gen_range(1..3000u32);
                item.to_string()
            });
            row.collect::<Vec<_>>().join(" ")
        })
        .collect();
    let text = clean.join("\n") + "\n";
    assert!(text.len() > 16 * (64 << 10), "{} bytes", text.len());

    std::fs::write(&path, &text).expect("temp dir writable");
    assert_file_agrees(&path);
    let read = read_canonical_text(&path, 8).expect("just written");
    assert!(read.0 == text && is_joined(read, &clean));

    std::fs::write(&path, text.trim_end()).expect("temp dir writable");
    assert_file_agrees(&path);
    assert_eq!(read_canonical_text(&path, 8).expect("just written").0, text);

    for odd in ["9 3 3", "", "7\r", "01", "+1", "1\u{a0}2", "x"] {
        let mut lines = clean.clone();
        lines[20_000] = odd.to_string();
        std::fs::write(&path, lines.join("\n") + "\n").expect("temp dir writable");
        assert_file_agrees(&path);
    }

    let dirty: Vec<String> = (0..30_000).map(|_| random_line(&mut rng)).collect();
    std::fs::write(&path, dirty.join("\r\n")).expect("temp dir writable");
    assert_file_agrees(&path);
    std::fs::remove_file(&path).expect("own temp file");
}

/// One hostile line each, alone and between two clean ones, under every
/// line ending: what a reader of whole chunks could get wrong at an edge.
#[test]
fn hostile_lines_at_every_edge() {
    let path = temp("edges.dat");
    let hostile = [
        "\r",
        "1\r2",
        "3\u{a0}4",
        "5\u{85}6",
        "+1",
        "01",
        "1000000000",
        "4294967295",
        "4294967296",
        "99999999999999999999",
        "2 1",
        "1 1",
        " ",
        "",
    ];
    for line in hostile {
        for ending in ["\n", "\r\n", ""] {
            for text in [
                format!("{line}{ending}"),
                format!("1 2\n{line}{ending}"),
                format!("{line}\n1 2{ending}"),
                format!("1 2\r\n{line}\n3 4{ending}"),
            ] {
                std::fs::write(&path, &text).expect("temp dir writable");
                assert_file_agrees(&path);
            }
        }
    }
    std::fs::remove_file(&path).expect("own temp file");
}

#[test]
fn a_one_mebibyte_line_without_a_newline() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut line = String::new();
    while line.len() < 1 << 20 {
        line.push_str(&rng.gen_range(0..200_000u32).to_string());
        line.push_str(if rng.gen_range(0..50u32) == 0 {
            "\t "
        } else {
            " "
        });
    }
    assert_eq!(parse_transaction(&line), old_parse_transaction(&line));
    let path = temp("huge.dat");
    std::fs::write(&path, &line).expect("temp dir writable");
    assert_file_agrees(&path);
    assert_eq!(read_dat(&path).expect("just written").len(), 1);
    std::fs::remove_file(&path).expect("own temp file");
}

#[test]
fn empty_and_non_utf8_files_fail_the_old_way() {
    let path = temp("hostile.dat");
    std::fs::write(&path, "").expect("temp dir writable");
    assert!(read_dat(&path).expect("an empty file reads").is_empty());
    let empty = read_canonical_text(&path, 2).expect("an empty file reads");
    assert_eq!(empty, (String::new(), vec![0]));
    std::fs::write(&path, b"1 2 3\n4 \xff 5\n").expect("temp dir writable");
    let expected = old_read_dat(&path).expect_err("invalid UTF-8");
    for error in [
        read_dat(&path).expect_err("invalid UTF-8"),
        read_canonical_text(&path, 2).expect_err("invalid UTF-8"),
    ] {
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(error.to_string(), expected.to_string());
    }
    std::fs::remove_file(&path).expect("own temp file");
}

fn mine(input: &Path, tail: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_yafim-cli"))
        .args(["mine", "--input"])
        .arg(input)
        .args(["--support", "40%", "--nodes", "4", "--cores", "2"])
        .args(tail)
        .output()
        .expect("yafim-cli runs")
}

/// Nothing on stdout, one line on stderr; returns that line and the code.
fn refusal(out: &Output) -> (String, Option<i32>) {
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    (stderr.trim_end().to_string(), out.status.code())
}

#[test]
fn the_cli_refuses_hostile_files_in_one_line() {
    let path = temp("cli-hostile.dat");
    let shown = path.display();
    for miner in ["spark", "eclat"] {
        std::fs::write(&path, " \n\r\n").expect("temp dir writable");
        assert_eq!(
            refusal(&mine(&path, &["--miner", miner])),
            (format!("{shown}: no transactions found"), Some(1))
        );
        std::fs::write(&path, b"1 2\n\xc3\x28 3\n").expect("temp dir writable");
        let utf8 = old_read_dat(&path).expect_err("invalid UTF-8");
        assert_eq!(
            refusal(&mine(&path, &["--miner", miner])),
            (format!("{shown}: {utf8}"), Some(1))
        );
    }
    std::fs::remove_file(&path).expect("own temp file");
    // An unknown miner is refused before the input is opened: the file is
    // gone and the complaint is still about the miner.
    assert_eq!(
        refusal(&mine(&path, &["--miner", "bogus"])),
        ("unknown miner: bogus".to_string(), Some(2))
    );
    let (line, code) = refusal(&mine(&path, &["--miner", "eclat"]));
    assert!(line.starts_with(&format!("{shown}: ")), "{line}");
    assert_eq!(code, Some(1));
}

#[test]
fn a_crlf_unsorted_duplicated_copy_mines_the_same() {
    let (clean, messy) = (temp("clean.dat"), temp("messy.dat"));
    let tx = PaperDataset::Mushroom.generate_scaled(0.02);
    write_dat(&clean, &tx).expect("temp dir writable");
    let mut text = String::new();
    for t in &tx {
        let mut tokens: Vec<String> = t.iter().rev().map(|item| format!("0{item}")).collect();
        tokens.extend([format!("+{}", t[0]), "x".to_string()]);
        text.push_str(&tokens.join("\t "));
        text.push_str(" \r\n");
    }
    std::fs::write(&messy, text).expect("temp dir writable");
    assert_eq!(read_dat(&messy).expect("just written"), tx);

    let summary = |file: &Path, tail: &[&str]| {
        let out = mine(file, tail);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().next().expect("a summary line");
        let (_, summary) = line.split_once(": ").expect("`miner: summary`");
        assert!(summary.contains("frequent itemsets"), "{line}");
        summary.to_string()
    };
    let reference = summary(&clean, &["--miner", "sequential"]);
    for tail in [
        &["--miner", "spark", "--phase2", "bitmap"][..],
        &["--miner", "mapreduce"],
        &["--miner", "sequential"],
        &["--miner", "fpgrowth"],
    ] {
        assert_eq!(summary(&messy, tail), reference, "{tail:?}");
        assert_eq!(summary(&clean, tail), reference, "{tail:?}");
    }
    std::fs::remove_file(&clean).expect("own temp file");
    std::fs::remove_file(&messy).expect("own temp file");
}
