//! `.dat` text format round-tripping and dataset replication.
//!
//! The FIMI/UCI `.dat` convention: one transaction per line, items as
//! whitespace-separated decimal ids. Both engines read datasets in this
//! format from simulated HDFS; [`to_lines`]/[`from_lines`] convert between
//! transaction lists and text, [`read_canonical_text`] takes a file straight
//! to the one buffer of lines the engines are fed ([`to_text`] does the same
//! for transactions in memory), and [`replicate`] produces the N×-enlarged
//! datasets of the paper's sizeup experiment (Fig. 4).
//!
//! Every line that is parsed goes through `scan_line` and every line that is
//! rendered through `render_line`; nothing else in the workspace knows the
//! cleaning rule or the decimal format.

use crate::{Item, Transaction};
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

/// Is the line `bytes` starts with, up to its `\n`, what [`render_line`]
/// would make of its own items: tokens of one to nine digits without a
/// leading zero, strictly ascending, single spaces between them and nothing
/// else? If so, where that `\n` is.
fn is_canonical(bytes: &[u8]) -> Option<usize> {
    let mut last = None;
    let mut i = 0;
    loop {
        let start = i;
        let mut value: Item = 0;
        while let Some(digit) = digit_at(bytes, i) {
            // Wraps only past nine digits, which is refused below.
            value = value.wrapping_mul(10).wrapping_add(Item::from(digit));
            i += 1;
        }
        let len = i - start;
        if len == 0 || len > 9 || (bytes[start] == b'0' && len > 1) {
            return None;
        }
        if last.is_some_and(|last| last >= value) {
            return None;
        }
        last = Some(value);
        match bytes.get(i) {
            Some(b' ') => i += 1,
            Some(b'\n') => return Some(i),
            _ => return None,
        }
    }
}

/// Render transactions as `.dat` lines: [`to_text`]'s, a `String` each.
pub fn to_lines(transactions: &[Transaction]) -> Vec<String> {
    let (text, offsets) = to_text(transactions);
    let line = |w: &[u64]| text[w[0] as usize..w[1] as usize - 1].to_owned();
    offsets.windows(2).map(line).collect()
}

/// Render transactions into the one buffer and the line offsets
/// [`read_canonical_text`] gives for the file [`write_dat`] makes of them.
pub fn to_text(transactions: &[Transaction]) -> (String, Vec<u64>) {
    let mut text = String::new();
    let mut offsets = Vec::with_capacity(transactions.len() + 1);
    offsets.push(0);
    for t in transactions {
        render_line(t, &mut text);
        text.push('\n');
        offsets.push(text.len() as u64);
    }
    (text, offsets)
}

/// Parse `.dat` lines back into transactions (sorting and deduplicating;
/// blank lines are skipped, unparseable tokens ignored).
pub fn from_lines<S: AsRef<str>>(lines: &[S]) -> Vec<Transaction> {
    scan_lines(lines.iter().map(AsRef::as_ref))
}

/// Write a `.dat` file to the local filesystem: [`to_text`]'s buffer.
pub fn write_dat(path: impl AsRef<Path>, transactions: &[Transaction]) -> std::io::Result<()> {
    std::fs::write(path, to_text(transactions).0)
}

/// Read a `.dat` file from the local filesystem.
pub fn read_dat(path: impl AsRef<Path>) -> std::io::Result<Vec<Transaction>> {
    let text = std::fs::read_to_string(path)?;
    Ok(scan_lines(text.lines()))
}

/// A chunk of a file smaller than this is not worth a thread of its own.
const MIN_CHUNK_BYTES: usize = 64 << 10;

/// Read a `.dat` file as the text the distributed engines are fed: the lines
/// of `to_lines(&read_dat(path)?)`, each followed by `\n`, in one buffer, and
/// where they start (line `i` is `text[offsets[i]..offsets[i + 1] - 1]`).
/// The file is cut at newlines into at most `threads` chunks, each checked
/// on a thread of its own: a line that is its own rendering stays, any other
/// is cleaned and rendered again, or dropped when it has no items. When no
/// line needed that (every file the generators write), the buffer returned
/// is the one the file was read into.
pub fn read_canonical_text(
    path: impl AsRef<Path>,
    threads: usize,
) -> std::io::Result<(String, Vec<u64>)> {
    let text = std::fs::read_to_string(path)?;
    let chunks = threads.min(text.len() / MIN_CHUNK_BYTES).max(1);
    let cuts: Vec<usize> = (1..chunks).map(|i| text.len() / chunks * i).collect();
    Ok(canonical_text(text, &cuts))
}

/// [`read_canonical_text`] on the file's contents, cut at the first newline
/// at or after each of `cuts` (ascending).
fn canonical_text(mut text: String, cuts: &[usize]) -> (String, Vec<u64>) {
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    let mut bounds = vec![0];
    for cut in cuts.iter().copied().chain([text.len()]) {
        let from = cut.clamp(bounds[bounds.len() - 1], text.len());
        let newline = text.as_bytes()[from..].iter().position(|&b| b == b'\n');
        bounds.push(newline.map_or(text.len(), |at| from + at + 1));
    }
    let cleaned: Vec<(Option<String>, Vec<u64>)> = std::thread::scope(|scope| {
        let chunk = |span: &[usize]| clean_chunk(&text[span[0]..span[1]]);
        let rest = bounds.windows(2).skip(1);
        let spawned: Vec<_> = rest.map(|span| scope.spawn(move || chunk(span))).collect();
        let mut cleaned = vec![chunk(&bounds[..2])];
        let joined = spawned.into_iter().map(|handle| handle.join());
        cleaned.extend(joined.map(|chunk| chunk.expect("a chunk's check panicked")));
        cleaned
    });

    let rewritten = cleaned.iter().any(|(text, _)| text.is_some());
    let mut out = String::with_capacity(if rewritten { text.len() } else { 0 });
    let lines: usize = cleaned.iter().map(|(_, ends)| ends.len()).sum();
    let mut offsets = Vec::with_capacity(lines + 1);
    offsets.push(0);
    let mut base = 0;
    for ((chunk, ends), span) in cleaned.iter().zip(bounds.windows(2)) {
        let chunk = chunk.as_deref().unwrap_or(&text[span[0]..span[1]]);
        offsets.extend(ends.iter().map(|end| base + end));
        base += chunk.len() as u64;
        if rewritten {
            out.push_str(chunk);
        }
    }
    (if rewritten { out } else { text }, offsets)
}

/// One chunk of a file, every line ended by `\n`: where each line the
/// engines are fed ends (one past its `\n`), and the chunk written again if
/// some line was not its own rendering, `None` if the chunk is those lines
/// already.
fn clean_chunk(chunk: &str) -> (Option<String>, Vec<u64>) {
    let bytes = chunk.as_bytes();
    let mut rewritten: Option<String> = None;
    let (mut ends, mut items) = (Vec::new(), Vec::new());
    let mut start = 0;
    while start < bytes.len() {
        if let Some(len) = is_canonical(&bytes[start..]) {
            let line = &chunk[start..start + len + 1];
            start += line.len();
            if let Some(out) = &mut rewritten {
                out.push_str(line);
            }
            ends.push(rewritten.as_ref().map_or(start, String::len) as u64);
            continue;
        }
        let out = rewritten.get_or_insert_with(|| chunk[..start].to_owned());
        let newline = chunk[start..].find('\n').expect("a chunk ends with one");
        // The `\n`, and a `\r` before it, are one more space to the scanner.
        let line = &chunk[start..start + newline + 1];
        start += line.len();
        items.clear();
        scan_line(line, &mut items);
        if !items.is_empty() {
            render_line(&items, out);
            out.push('\n');
            ends.push(out.len() as u64);
        }
    }
    (rewritten, ends)
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
        let mut items = Vec::new();
        for line in lines {
            items.clear();
            scan_line(line, &mut items);
            let own_rendering = !items.is_empty() && to_lines(&[items.clone()]) == [line];
            // Ten-digit ids render as themselves too; they take the slow path.
            let expected = (own_rendering && line != "1000000000").then_some(line.len());
            let ended = format!("{line}\n1 2\n");
            assert_eq!(is_canonical(ended.as_bytes()), expected, "{line:?}");
            assert_eq!(is_canonical(line.as_bytes()), None, "{line:?} never ends");
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

    /// `to_lines(&from_lines(..))` of the text's `str::lines`, as one buffer.
    fn text_oracle(text: &str) -> (String, Vec<u64>) {
        let lines: Vec<&str> = text.lines().collect();
        to_text(&from_lines(&lines))
    }

    #[test]
    fn every_cut_of_a_hostile_file_gives_the_same_text() {
        let hostile = "1 2 3\n\n7 5\r\n 4\n0\n\r9 x 10\u{a0}11\n+1 01\n12 13\n\n\n8\r";
        for text in [hostile, "1 2\n3 4\n", "1 2\n3 4", "", "\n", " \n\r\n", "5"] {
            let expected = text_oracle(text);
            assert_eq!(canonical_text(text.to_string(), &[]), expected, "{text:?}");
            for a in 0..=text.len() + 1 {
                for b in a..=text.len() + 1 {
                    let got = canonical_text(text.to_string(), &[a, b]);
                    assert_eq!(got, expected, "{text:?} cut at {a} and {b}");
                }
            }
        }
        let (text, offsets) = canonical_text("1 2\n3 4\n".to_string(), &[2]);
        assert_eq!(
            (text.as_str(), &offsets[..]),
            ("1 2\n3 4\n", &[0, 4, 8][..])
        );
    }
}
