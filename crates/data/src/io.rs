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
//! Every line that is parsed goes through `scan_line` (the loader's check
//! calls its two halves directly), and every line that is rendered through
//! `render_line`; nothing else in the workspace knows the cleaning rule or
//! the decimal format. A line that is already its own rendering (every line
//! the loader hands the engines) is read by one strict recognizer,
//! `canonical_line`, in one tight loop; any other falls back to the rule's
//! byte loop.

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
/// A line that is its own rendering, with or without its `\n`, takes
/// [`scan_canonical`]'s tight loop; any other falls back to [`scan_bytes`].
pub fn scan_line(line: &str, items: &mut Vec<Item>) {
    if !scan_canonical(line.as_bytes(), items) {
        scan_bytes(line, items);
    }
}

/// [`canonical_line`] over the whole of `line` (or that and its `\n`):
/// whether it took the line, its items appended; `items` as it was if not.
fn scan_canonical(line: &[u8], items: &mut Vec<Item>) -> bool {
    let start = items.len();
    // A token and the space after it take two bytes at least.
    items.reserve(line.len() / 2 + 1);
    let len = canonical_line(line, |item| items.push(item));
    if len.is_some_and(|len| len + 1 >= line.len()) {
        return true;
    }
    items.truncate(start);
    false
}

/// [`scan_line`] on any line: ASCII lines are scanned byte by byte, noting
/// whether the items arrive strictly ascending so that the usual line skips
/// the sort. A line with a non-ASCII byte may hold Unicode whitespace and is
/// handed, whole, to the `split_whitespace`/`str::parse` wording of the rule.
fn scan_bytes(line: &str, items: &mut Vec<Item>) {
    // Any clamp above `Item::MAX` that leaves room for one more digit.
    const TOO_BIG: u64 = 1 << 40;
    let start = items.len();
    let bytes = line.as_bytes();
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

/// Read the line `bytes` starts with if it is what [`render_line`] would
/// make of its own items: tokens of one to nine digits without a leading
/// zero, strictly ascending, single spaces between them, ended by `\n` or
/// by the end of `bytes`. If so, each item has gone to `item` in order and
/// the line's length (without the `\n`) is returned; if not, a prefix of
/// them has, for the caller to drop. Nine digits keep the loop free of
/// overflow handling; a line with a ten-digit id is refused.
fn canonical_line(bytes: &[u8], mut item: impl FnMut(Item)) -> Option<usize> {
    // The least the next id may be.
    let mut floor: Item = 0;
    let mut i = 0;
    loop {
        let first = i;
        let mut value: Item = 0;
        while let Some(digit) = digit_at(bytes, i) {
            // Wraps only past nine digits, which is refused below.
            value = value.wrapping_mul(10).wrapping_add(Item::from(digit));
            i += 1;
        }
        let len = i - first;
        if len == 0 || len > 9 || (bytes[first] == b'0' && len > 1) || value < floor {
            return None;
        }
        floor = value + 1;
        item(value);
        match bytes.get(i) {
            Some(b' ') => i += 1,
            Some(b'\n') | None => return Some(i),
            Some(_) => return None,
        }
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
        if let Some(len) = canonical_line(&bytes[start..], drop) {
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
        scan_bytes(line, &mut items);
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

    /// `scan_line`'s fast path: the line's items if it took the line.
    fn fast_path(line: &str) -> Option<Vec<Item>> {
        let mut items = Vec::new();
        scan_canonical(line.as_bytes(), &mut items).then_some(items)
    }

    /// The rule in its `split_whitespace`/`str::parse` wording.
    fn rule(line: &str) -> Vec<Item> {
        let mut items: Vec<Item> = line
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        items.sort_unstable();
        items.dedup();
        items
    }

    #[test]
    fn canonical_means_the_line_is_its_own_rendering() {
        let lines = [
            "0",
            "7",
            "0 1",
            "1 5 9",
            "999999999",
            "1 5 9\n",
            "",
            " ",
            "1 ",
            " 1",
            "1  2",
            "1\t2",
            "1\r",
            "01",
            "00",
            "+1",
            "2 1",
            "1 1",
            "1 x",
            "3\n1",
            "1000000000",
            "4294967295",
            "4294967296",
            "1\u{a0}2",
        ];
        for line in lines {
            let items = rule(line);
            let rendering = to_lines(std::slice::from_ref(&items)).pop();
            let own =
                !items.is_empty() && rendering.as_deref() == line.strip_suffix('\n').or(Some(line));
            // Ten-digit ids render as themselves too; they take the slow path.
            let fast = own && items.iter().all(|&item| item <= 999_999_999);
            assert_eq!(fast_path(line), fast.then(|| items.clone()), "{line:?}");
            if !line.contains('\n') {
                // As a chunk's check reads it: up to its `\n`.
                let chunk = format!("{line}\n1 2\n");
                let len = canonical_line(chunk.as_bytes(), drop);
                assert_eq!(len, fast.then_some(line.len()), "{chunk:?}");
            }
            let mut got = vec![7];
            scan_line(line, &mut got);
            assert_eq!((got[0], &got[1..]), (7, &items[..]), "{line:?}");
        }
    }

    #[test]
    fn every_rendered_line_of_nine_digit_ids_takes_the_fast_path() {
        let mut rng = crate::rng::StdRng::seed_from_u64(48);
        for _ in 0..5_000 {
            let len = rng.gen_range(1..12usize);
            let mut t: Vec<Item> = (0..len)
                .map(|_| match rng.gen_range(1..12u32) {
                    11 => Item::MAX,
                    digits => {
                        let low = if digits == 1 {
                            0
                        } else {
                            10u64.pow(digits - 1)
                        };
                        let high = 10u64.pow(digits).min(1 << 32);
                        rng.gen_range(low..high) as Item
                    }
                })
                .collect();
            t.sort_unstable();
            t.dedup();
            let mut line = String::new();
            render_line(&t, &mut line);
            let short = t.iter().all(|&item| item <= 999_999_999);
            for line in [line.clone(), format!("{line}\n")] {
                let expected = short.then(|| t.clone());
                assert_eq!(fast_path(&line), expected, "{line:?}");
                let mut items = vec![7];
                scan_line(&line, &mut items);
                assert_eq!((items[0], &items[1..]), (7, &t[..]), "{line:?}");
            }
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
