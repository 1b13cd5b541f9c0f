//! `.dat` text format round-tripping and dataset replication.
//!
//! The FIMI/UCI `.dat` convention: one transaction per line, items as
//! whitespace-separated decimal ids. Both engines read datasets in this
//! format from simulated HDFS; [`to_lines`]/[`from_lines`] convert between
//! transaction lists and text, [`read_canonical_lines`] takes a file straight
//! to the lines the engines are fed, and [`replicate`] produces the
//! N×-enlarged datasets of the paper's sizeup experiment (Fig. 4).
//!
//! Every line that is parsed goes through `scan_line` and every line that is
//! rendered through `render_line`; nothing else in the workspace knows the
//! cleaning rule or the decimal format.

use crate::{Item, Transaction};
use std::io::{BufWriter, Write};
use std::path::Path;

/// The ASCII bytes `char::is_whitespace` accepts: `\t \n \x0b \x0c \r` and
/// the space (`\x1c..=\x1f` are not White_Space).
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// The decimal digit at `bytes[i]`, if there is one.
fn digit_at(bytes: &[u8], i: usize) -> Option<u8> {
    bytes
        .get(i)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
}

/// The cleaning rule, defined once: append the line's items to `items`,
/// strictly ascending; what `items` already holds (earlier lines of an
/// arena) stays as it is. A token is what `split_whitespace` yields; it
/// counts when `str::parse::<u32>` accepts it (digits after an optional `+`,
/// leading zeros allowed, no overflow) and is skipped otherwise.
///
/// ASCII lines are scanned byte by byte, noting whether the items arrive
/// strictly ascending so that the usual line skips the sort. A line with a
/// non-ASCII byte may hold Unicode whitespace and is handed, whole, to the
/// `split_whitespace`/`str::parse` wording of the rule.
pub fn scan_line(line: &str, items: &mut Vec<Item>) {
    // Any clamp above `Item::MAX` that leaves room for one more digit.
    const TOO_BIG: u64 = 1 << 40;
    let start = items.len();
    let bytes = line.as_bytes();
    // A token and the space after it take two bytes at least.
    items.reserve(bytes.len() / 2 + 1);
    let mut ascending = true;
    let mut i = 0;
    while i < bytes.len() {
        if is_space(bytes[i]) {
            i += 1;
            continue;
        }
        i += usize::from(bytes[i] == b'+');
        let digits = i;
        let mut value = 0u64;
        while let Some(digit) = digit_at(bytes, i) {
            value = (value * 10 + u64::from(digit)).min(TOO_BIG);
            i += 1;
        }
        if bytes.get(i).is_some_and(|&b| !is_space(b)) {
            // Not a number: skip the rest of the token.
            while let Some(&b) = bytes.get(i).filter(|&&b| !is_space(b)) {
                if !b.is_ascii() {
                    items.truncate(start);
                    let tokens = line.split_whitespace();
                    items.extend(tokens.filter_map(|t| t.parse::<Item>().ok()));
                    return sort_line(items, start);
                }
                i += 1;
            }
        } else if i > digits && value <= u64::from(Item::MAX) {
            let value = value as Item;
            ascending &= items[start..].last().is_none_or(|&last| last < value);
            items.push(value);
        }
    }
    if !ascending {
        sort_line(items, start);
    }
}

/// Sort and deduplicate the line that `items[start..]` holds.
fn sort_line(items: &mut Vec<Item>, start: usize) {
    let mut line = items.split_off(start);
    line.sort_unstable();
    line.dedup();
    items.append(&mut line);
}

/// The transactions of `lines`; a line without items is dropped.
fn scan_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<Transaction> {
    let mut items = Vec::new();
    lines
        .filter_map(|line| {
            items.clear();
            scan_line(line, &mut items);
            (!items.is_empty()).then(|| items.clone())
        })
        .collect()
}

/// Append `items` to `out` as one `.dat` line, without the newline: decimal
/// ids separated by single spaces.
fn render_line(items: &[Item], out: &mut String) {
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        let mut rest = item;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        out.extend(digits[at..].iter().map(|&d| char::from(d)));
    }
}

/// `items` as a line of its own, rendered through the reusable `buf`.
fn rendered(items: &[Item], buf: &mut String) -> String {
    buf.clear();
    render_line(items, buf);
    buf.clone()
}

/// Is `line` what [`render_line`] would make of its own items: tokens of
/// one to nine digits without a leading zero, strictly ascending, single
/// spaces between them and nothing else?
fn is_canonical(line: &[u8]) -> bool {
    let mut last = None;
    let mut i = 0;
    loop {
        let start = i;
        let mut value: Item = 0;
        while let Some(digit) = digit_at(line, i) {
            // Wraps only past nine digits, which is refused below.
            value = value.wrapping_mul(10).wrapping_add(Item::from(digit));
            i += 1;
        }
        let len = i - start;
        if len == 0 || len > 9 || (line[start] == b'0' && len > 1) {
            return false;
        }
        if last.is_some_and(|last| last >= value) {
            return false;
        }
        last = Some(value);
        match line.get(i) {
            None => return true,
            Some(b' ') => i += 1,
            Some(_) => return false,
        }
    }
}

/// Render transactions as `.dat` lines.
pub fn to_lines(transactions: &[Transaction]) -> Vec<String> {
    let mut buf = String::new();
    transactions.iter().map(|t| rendered(t, &mut buf)).collect()
}

/// Parse `.dat` lines back into transactions (sorting and deduplicating;
/// blank lines are skipped, unparseable tokens ignored).
pub fn from_lines<S: AsRef<str>>(lines: &[S]) -> Vec<Transaction> {
    scan_lines(lines.iter().map(AsRef::as_ref))
}

/// Write a `.dat` file to the local filesystem.
pub fn write_dat(path: impl AsRef<Path>, transactions: &[Transaction]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for t in transactions {
        line.clear();
        render_line(t, &mut line);
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

/// Read a `.dat` file from the local filesystem.
pub fn read_dat(path: impl AsRef<Path>) -> std::io::Result<Vec<Transaction>> {
    let text = std::fs::read_to_string(path)?;
    Ok(scan_lines(text.lines()))
}

/// Read a `.dat` file as the lines the distributed engines are fed — the
/// same as `to_lines(&read_dat(path)?)` without building the transactions.
/// A line that is already its own rendering is copied; any other line is
/// cleaned and rendered again, or dropped when it has no items.
pub fn read_canonical_lines(path: impl AsRef<Path>) -> std::io::Result<Vec<String>> {
    let text = std::fs::read_to_string(path)?;
    let (mut items, mut buf) = (Vec::new(), String::new());
    Ok(text
        .lines()
        .filter_map(|line| {
            if is_canonical(line.as_bytes()) {
                return Some(line.to_owned());
            }
            items.clear();
            scan_line(line, &mut items);
            (!items.is_empty()).then(|| rendered(&items, &mut buf))
        })
        .collect())
}

/// Concatenate `times` copies of the dataset — the paper's sizeup
/// methodology ("we replicate four datasets to 2, 3, 4, 5 and 6 times in
/// size"). Replication preserves every relative support exactly, so the
/// mining result is identical while the data volume scales.
pub fn replicate(transactions: &[Transaction], times: usize) -> Vec<Transaction> {
    assert!(times >= 1);
    let mut out = Vec::with_capacity(transactions.len() * times);
    for _ in 0..times {
        out.extend(transactions.iter().cloned());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_roundtrip() {
        let tx = vec![vec![1, 5, 9], vec![2], vec![3, 4]];
        let lines = to_lines(&tx);
        assert_eq!(lines, vec!["1 5 9", "2", "3 4"]);
        assert_eq!(from_lines(&lines), tx);
    }

    #[test]
    fn from_lines_cleans_input() {
        let lines = vec!["5 3 3 1", "", "  ", "x 2"];
        assert_eq!(from_lines(&lines), vec![vec![1, 3, 5], vec![2]]);
    }

    #[test]
    fn canonical_means_the_line_is_its_own_rendering() {
        let lines = [
            "0",
            "7",
            "0 1",
            "1 5 9",
            "999999999",
            "",
            " ",
            "1 ",
            " 1",
            "1  2",
            "1\t2",
            "01",
            "00",
            "+1",
            "2 1",
            "1 1",
            "1 x",
            "1000000000",
            "4294967296",
            "1\u{a0}2",
        ];
        let (mut items, mut buf) = (Vec::new(), String::new());
        for line in lines {
            items.clear();
            scan_line(line, &mut items);
            let own_rendering = !items.is_empty() && rendered(&items, &mut buf) == line;
            // Ten-digit ids render as themselves too; they take the slow path.
            let expected = own_rendering && line != "1000000000";
            assert_eq!(is_canonical(line.as_bytes()), expected, "{line:?}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("yafim-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dat");
        let tx = vec![vec![10, 20], vec![30]];
        write_dat(&path, &tx).unwrap();
        assert_eq!(read_dat(&path).unwrap(), tx);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replicate_scales_exactly() {
        let tx = vec![vec![1], vec![2]];
        let r = replicate(&tx, 3);
        assert_eq!(r.len(), 6);
        assert_eq!(&r[0..2], &tx[..]);
        assert_eq!(&r[4..6], &tx[..]);
        assert_eq!(replicate(&tx, 1), tx);
    }
}
