//! `.dat` text format round-tripping and dataset replication.
//!
//! The FIMI/UCI `.dat` convention: one transaction per line, items as
//! whitespace-separated decimal ids. [`read_rows`] takes a file to what the
//! engines are fed: every transaction's items in [`Rows`] arenas, one per
//! chunk of the file, and where each line of the file's canonical text
//! (`to_text` of those transactions) starts; the text itself is never held.
//! [`to_lines`]/[`from_lines`] convert between transaction lists and text,
//! and [`replicate`] produces the N×-enlarged datasets of the paper's sizeup
//! experiment (Fig. 4).
//!
//! Every line that is parsed goes through `canonical_line` and, if that
//! refuses it, on through `scan_bytes` from the token it refused, so each
//! byte is read once; every line that is rendered goes through
//! [`render_line`]. Nothing else in the workspace knows the cleaning rule or
//! the decimal format. A line that is already its own rendering (every line
//! the generators write) is read by the one strict recognizer in one tight
//! loop.

use crate::{Item, Transaction};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;
use std::str::Utf8Error;

/// Transactions in one arena: every row's items back to back, and where
/// each row ends. Two allocations however many rows it holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rows {
    items: Vec<Item>,
    /// Where each row ends in `items`; it starts where the one before ends.
    /// `u32` holds them: the loader cuts a file into chunks of at most 4 GiB
    /// (an item takes two bytes of text at least), and an engine builds an
    /// arena from one input split, which it refuses at 8 GiB.
    ends: Vec<u32>,
}

impl Rows {
    /// The arena `fill` pushes rows into, given room for `rows` rows of
    /// `items` items in all and cut back to what it took.
    pub fn build(rows: usize, items: usize, fill: impl FnOnce(&mut Rows)) -> Self {
        let mut arena = Rows::with_capacity(rows, items);
        fill(&mut arena);
        arena.shrink_to_fit();
        arena
    }

    fn with_capacity(rows: usize, items: usize) -> Self {
        Rows {
            items: Vec::with_capacity(items),
            ends: Vec::with_capacity(rows),
        }
    }

    fn shrink_to_fit(&mut self) {
        self.items.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Append the row `fill` appends to the items, unless it comes out
    /// shorter than `min_len`.
    pub fn push_row(&mut self, min_len: usize, fill: impl FnOnce(&mut Vec<Item>)) {
        let start = self.items.len();
        fill(&mut self.items);
        if self.items.len() - start < min_len {
            return self.items.truncate(start);
        }
        self.end_row();
    }

    /// Close the row the items pushed since the last one make.
    fn end_row(&mut self) {
        let end = u32::try_from(self.items.len()).expect("an arena holds < 2^32 items");
        self.ends.push(end);
    }

    /// Where row `row` starts (`row == len()`: where the last ends).
    fn start(&self, row: usize) -> usize {
        row.checked_sub(1)
            .map_or(0, |before| self.ends[before] as usize)
    }

    /// The items of the rows `range`, back to back.
    pub fn items(&self, range: Range<usize>) -> &[Item] {
        &self.items[self.start(range.start)..self.start(range.end)]
    }

    /// How many bytes the rows `range` take as `.dat` lines, each with its
    /// `\n`: [`to_text`]'s of them.
    pub fn rendered_len(&self, range: Range<usize>) -> u64 {
        self.rows(range).map(|row| rendered_len(row).max(1)).sum()
    }

    /// The rows `range`, in order.
    pub fn rows(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = &[Item]> {
        let mut start = self.start(range.start);
        self.ends[range].iter().map(move |&end| {
            let row = &self.items[start..end as usize];
            start = end as usize;
            row
        })
    }
}

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
/// A line that is its own rendering, with or without its `\n`, is read by
/// [`canonical_line`] alone; any other goes on through [`scan_bytes`] from
/// the token the recognizer refused, keeping the items before it.
pub fn scan_line(line: &str, items: &mut Vec<Item>) {
    let start = items.len();
    // A token and the space after it take two bytes at least.
    items.reserve(line.len() / 2 + 1);
    let from = match canonical_line(line.as_bytes(), |item| items.push(item)) {
        Ok(len) if len + 1 >= line.len() => return,
        Ok(len) => len,
        Err(at) => at,
    };
    scan_bytes(line.as_bytes(), from, items, start).expect("a `str` is UTF-8");
}

/// [`scan_line`]'s rule over `line[from..]`, the line's items before `from`
/// already in `items[start..]`, strictly ascending, and `from` the start of
/// a token or a run of spaces. ASCII bytes are scanned one by one, noting
/// whether the items arrive strictly ascending so that the usual line skips
/// the sort. A line with a non-ASCII byte may hold Unicode whitespace and is
/// handed, whole, to the `split_whitespace`/`str::parse` wording of the
/// rule; that is where a line that is not UTF-8 is refused.
fn scan_bytes(
    line: &[u8],
    from: usize,
    items: &mut Vec<Item>,
    start: usize,
) -> Result<(), Utf8Error> {
    // Any clamp above `Item::MAX` that leaves room for one more digit.
    const TOO_BIG: u64 = 1 << 40;
    let mut ascending = true;
    let mut i = from;
    while i < line.len() {
        if is_space(line[i]) {
            i += 1;
            continue;
        }
        i += usize::from(line[i] == b'+');
        let digits = i;
        let mut value = 0u64;
        while let Some(digit) = digit_at(line, i) {
            value = (value * 10 + u64::from(digit)).min(TOO_BIG);
            i += 1;
        }
        if line.get(i).is_some_and(|&b| !is_space(b)) {
            // Not a number: skip the rest of the token.
            while let Some(&b) = line.get(i).filter(|&&b| !is_space(b)) {
                if !b.is_ascii() {
                    items.truncate(start);
                    let tokens = std::str::from_utf8(line)?.split_whitespace();
                    items.extend(tokens.filter_map(|t| t.parse::<Item>().ok()));
                    sort_line(items, start);
                    return Ok(());
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
    Ok(())
}

/// Read the line `bytes` starts with if it is what [`render_line`] would
/// make of its own items: tokens of one to nine digits without a leading
/// zero, strictly ascending, single spaces between them, ended by `\n` or
/// by the end of `bytes`. If so, each item has gone to `item` in order and
/// the line's length (without the `\n`) is `Ok`; if not, the items of the
/// tokens before the one it refused have, and that token's start is the
/// `Err`. Nine digits keep the loop free of overflow handling; a ten-digit
/// id is refused.
fn canonical_line(bytes: &[u8], mut item: impl FnMut(Item)) -> Result<usize, usize> {
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
            return Err(first);
        }
        floor = value + 1;
        match bytes.get(i) {
            Some(b' ') => i += 1,
            Some(b'\n') | None => {
                item(value);
                return Ok(i);
            }
            Some(_) => return Err(first),
        }
        item(value);
    }
}

/// Sort and deduplicate the line that `items[start..]` holds.
fn sort_line(items: &mut Vec<Item>, start: usize) {
    let mut line = items.split_off(start);
    line.sort_unstable();
    line.dedup();
    items.append(&mut line);
}

/// Append `items` to `out` as one `.dat` line, without the newline: decimal
/// ids separated by single spaces.
pub fn render_line(items: &[Item], out: &mut String) {
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

/// How many bytes [`render_line`] makes of `items`, and a `\n` after them.
fn rendered_len(items: &[Item]) -> u64 {
    let digits = |item: Item| u64::from(item.checked_ilog10().unwrap_or(0)) + 1;
    items.iter().map(|&item| digits(item) + 1).sum()
}

/// Render transactions as `.dat` lines: [`to_text`]'s, a `String` each.
pub fn to_lines(transactions: &[Transaction]) -> Vec<String> {
    let (text, offsets) = to_text(transactions);
    let line = |w: &[u64]| text[w[0] as usize..w[1] as usize - 1].to_owned();
    offsets.windows(2).map(line).collect()
}

/// Render transactions into one buffer, a `\n` after each line, and where
/// each line starts: the file [`write_dat`] makes of them, and what
/// [`read_rows`]' offsets say of that file.
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
    let mut items = Vec::new();
    lines
        .iter()
        .filter_map(|line| {
            items.clear();
            scan_line(line.as_ref(), &mut items);
            (!items.is_empty()).then(|| items.clone())
        })
        .collect()
}

/// Write a `.dat` file to the local filesystem: [`to_text`]'s buffer.
pub fn write_dat(path: impl AsRef<Path>, transactions: &[Transaction]) -> std::io::Result<()> {
    std::fs::write(path, to_text(transactions).0)
}

/// Read a `.dat` file from the local filesystem: [`read_rows`]' rows on one
/// thread, a `Vec` each.
pub fn read_dat(path: impl AsRef<Path>) -> std::io::Result<Vec<Transaction>> {
    let (arenas, _) = read_rows(path, 1)?;
    let rows = arenas.iter().flat_map(|rows| rows.rows(0..rows.len()));
    Ok(rows.map(<[Item]>::to_vec).collect())
}

/// A chunk of a file smaller than this is not worth a thread of its own.
const MIN_CHUNK_BYTES: u64 = 64 << 10;

/// No chunk is larger than this, so that its items fit [`Rows::ends`].
const MAX_CHUNK_BYTES: u64 = 4 << 30;

/// What a chunk's reader asks the file for at a time.
const READ_BYTES: usize = 64 << 10;

/// Read a `.dat` file as the engines are fed it: the transactions of
/// `read_dat(path)?`, in one arena per chunk of the file, and where the
/// lines of their canonical text start (`to_text(&read_dat(path)?).1`).
/// The file is cut into at most `threads` chunks (fewer for a small file),
/// each read and checked on a thread of its own, [`READ_BYTES`] at a time:
/// a line's items go into the arena as it is read, and a line without
/// items is dropped. Neither the file nor its canonical text is ever held
/// whole. A file that is not UTF-8 is refused as `read_to_string` refuses
/// it.
pub fn read_rows(path: impl AsRef<Path>, threads: usize) -> std::io::Result<(Vec<Rows>, Vec<u64>)> {
    let path = path.as_ref();
    let len = File::open(path)?.metadata()?.len();
    let chunks = (threads as u64).min(len / MIN_CHUNK_BYTES);
    let chunks = chunks.max(len.div_ceil(MAX_CHUNK_BYTES)).max(1);
    let cuts: Vec<u64> = (1..chunks).map(|i| len / chunks * i).collect();
    read_chunks(path, &cuts, len)
}

/// [`read_rows`] with the file cut at `cuts` (ascending): the `j`-th chunk
/// holds the lines that start after `cuts[j - 1]` and at or before
/// `cuts[j]`, so that each chunk's reader finds its own first line and the
/// chunks tile the file however it is cut. `len` is the file's length, a
/// hint for the arenas' room.
fn read_chunks(path: &Path, cuts: &[u64], len: u64) -> std::io::Result<(Vec<Rows>, Vec<u64>)> {
    let bounds = |j: usize| {
        let after = j.checked_sub(1).map(|before| cuts[before]);
        (after, cuts.get(j).copied().unwrap_or(u64::MAX))
    };
    let chunk = |j: usize| {
        let (after, last) = bounds(j);
        let bytes = last.min(len).saturating_sub(after.unwrap_or(0));
        // The first chunk's line ends go on to be the file's offsets. Room
        // for a line per 32 bytes; a vector grows past its room.
        let lines = if j == 0 { len } else { bytes } / 32;
        let mut ends = Vec::with_capacity(lines as usize + 1);
        ends.extend((j == 0).then_some(0));
        read_chunk(path, after, last, bytes, ends)
    };
    let read: Vec<std::io::Result<(Rows, Vec<u64>)>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..=cuts.len())
            .map(|j| scope.spawn(move || chunk(j)))
            .collect();
        let mut read = vec![chunk(0)];
        let joined = spawned.into_iter().map(|handle| handle.join());
        read.extend(joined.map(|chunk| chunk.expect("a chunk's reader panicked")));
        read
    });
    let mut read = read
        .into_iter()
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter();
    let (first, mut offsets) = read.next().expect("a first chunk");
    let mut arenas = vec![first];
    for (rows, ends) in read {
        let base = offsets[offsets.len() - 1];
        offsets.extend(ends.iter().map(|end| base + end));
        arenas.push(rows);
    }
    arenas.retain(|rows| !rows.is_empty());
    Ok((arenas, offsets))
}

/// A file read [`READ_BYTES`] at a time: `buf[lo..hi]` is what has been
/// read and not yet consumed, and it starts at byte `at` of the file.
struct Reader {
    file: File,
    buf: Vec<u8>,
    lo: usize,
    hi: usize,
    at: u64,
    eof: bool,
}

impl Reader {
    /// What has been read and not yet consumed.
    fn unread(&self) -> &[u8] {
        &self.buf[self.lo..self.hi]
    }

    fn consume(&mut self, bytes: usize) {
        self.lo += bytes;
        self.at += bytes as u64;
    }

    /// Keep what is unread, moved to the front (the buffer doubles when it
    /// is all unread: a line longer than it), and read more after it.
    fn refill(&mut self) -> std::io::Result<()> {
        self.buf.copy_within(self.lo..self.hi, 0);
        (self.lo, self.hi) = (0, self.hi - self.lo);
        if self.hi == self.buf.len() {
            self.buf.resize(2 * self.buf.len(), 0);
        }
        let read = loop {
            match self.file.read(&mut self.buf[self.hi..]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                read => break read?,
            }
        };
        self.hi += read;
        self.eof = read == 0;
        Ok(())
    }
}

/// What a chunk's reader makes of the line its unread bytes start with.
enum Line {
    /// Its own rendering, this long (without the `\n`).
    Canonical(usize),
    /// This long; read by the recognizer up to the token at `from`.
    Dirty { len: usize, from: usize },
    /// Not all read yet.
    Partial,
}

/// One chunk of [`read_chunks`]: the rows of the lines of `path` that start
/// after byte `after` (from the first byte when `None`) and at or before
/// byte `last`, and, appended to `ends`, where each one's canonical
/// rendering ends, counted from the chunk's first. `bytes`, about what the
/// chunk spans, sizes the arena.
fn read_chunk(
    path: &Path,
    after: Option<u64>,
    last: u64,
    bytes: u64,
    mut ends: Vec<u64>,
) -> std::io::Result<(Rows, Vec<u64>)> {
    let mut file = File::open(path)?;
    let at = after.unwrap_or(0);
    file.seek(SeekFrom::Start(at))?;
    let buf = vec![0; READ_BYTES];
    let mut r = Reader {
        file,
        buf,
        lo: 0,
        hi: 0,
        at,
        eof: false,
    };
    let mut rows = Rows::with_capacity(bytes as usize / 32 + 1, bytes as usize / 4 + 1);
    let mut canonical = 0;
    if after.is_some() {
        // The line holding byte `after` is the chunk before's.
        loop {
            if let Some(newline) = r.unread().iter().position(|&b| b == b'\n') {
                r.consume(newline + 1);
                break;
            }
            r.consume(r.hi - r.lo);
            if r.eof {
                return Ok((rows, ends));
            }
            r.refill()?;
        }
    }
    while r.at <= last {
        if r.lo == r.hi {
            if r.eof {
                break;
            }
            r.refill()?;
            continue;
        }
        let start = rows.items.len();
        let unread = &r.buf[r.lo..r.hi];
        let line = match canonical_line(unread, |item| rows.items.push(item)) {
            Ok(len) if len < unread.len() || r.eof => Line::Canonical(len),
            Err(from) => match unread[from..].iter().position(|&b| b == b'\n') {
                Some(newline) => Line::Dirty {
                    len: from + newline,
                    from,
                },
                None if r.eof => Line::Dirty {
                    len: unread.len(),
                    from,
                },
                None => Line::Partial,
            },
            Ok(_) => Line::Partial,
        };
        let len = match line {
            Line::Partial => {
                rows.items.truncate(start);
                r.refill()?;
                continue;
            }
            Line::Canonical(len) => {
                canonical += len as u64 + 1;
                len
            }
            Line::Dirty { len, from } => {
                let invalid = |_| {
                    let message = "stream did not contain valid UTF-8";
                    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
                };
                scan_bytes(&unread[..len], from, &mut rows.items, start).map_err(invalid)?;
                canonical += rendered_len(&rows.items[start..]);
                len
            }
        };
        r.consume((len + 1).min(r.hi - r.lo));
        if rows.items.len() > start {
            rows.end_row();
            ends.push(canonical);
        }
    }
    rows.shrink_to_fit();
    ends.shrink_to_fit();
    Ok((rows, ends))
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

    /// `scan_line`'s fast path: the line's items if the recognizer alone
    /// took the whole line (or that and its `\n`).
    fn fast_path(line: &str) -> Option<Vec<Item>> {
        let mut items = Vec::new();
        let len = canonical_line(line.as_bytes(), |item| items.push(item));
        len.is_ok_and(|len| len + 1 >= line.len()).then_some(items)
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
                assert_eq!(len.ok(), fast.then_some(line.len()), "{chunk:?}");
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

    /// A file of `text` in the temp dir, removed on drop.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(name: &str, text: &str) -> Self {
            let path = std::env::temp_dir().join(format!("yafim-io-{name}-{}", std::process::id()));
            std::fs::write(&path, text).unwrap();
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// The rule over the text's `str::lines`, a line without items dropped,
    /// and `to_text`'s offsets of what is left.
    fn rule_oracle(text: &str) -> (Vec<Transaction>, Vec<u64>) {
        let rows: Vec<Transaction> = text.lines().map(rule).filter(|t| !t.is_empty()).collect();
        let offsets = to_text(&rows).1;
        (rows, offsets)
    }

    /// The rows of the arenas, in order.
    fn flat(arenas: &[Rows]) -> Vec<Transaction> {
        let rows = arenas.iter().flat_map(|rows| rows.rows(0..rows.len()));
        rows.map(<[Item]>::to_vec).collect()
    }

    #[test]
    fn every_cut_of_a_hostile_file_gives_the_same_rows() {
        let hostile = "1 2 3\n\n7 5\r\n 4\n0\n\r9 x 10\u{a0}11\n+1 01\n12 13\n\n\n8\r";
        for text in [hostile, "1 2\n3 4\n", "1 2\n3 4", "", "\n", " \n\r\n", "5"] {
            let expected = rule_oracle(text);
            let file = TempFile::new("cuts", text);
            let len = text.len() as u64;
            let read = |cuts: &[u64]| {
                let (arenas, offsets) = read_chunks(&file.0, cuts, len).unwrap();
                assert!(arenas.iter().all(|rows| !rows.is_empty()));
                (flat(&arenas), offsets)
            };
            assert_eq!(read(&[]), expected, "{text:?}");
            for a in 0..=len + 1 {
                for b in a..=len + 1 {
                    assert_eq!(read(&[a, b]), expected, "{text:?} cut at {a} and {b}");
                }
            }
        }
        let file = TempFile::new("cut-at-2", "1 2\n3 4\n");
        let (arenas, offsets) = read_chunks(&file.0, &[2], 8).unwrap();
        assert_eq!((arenas.len(), &offsets[..]), (2, &[0, 4, 8][..]));
    }

    #[test]
    fn a_dirty_line_resumes_at_the_token_the_recognizer_refused() {
        // (line, where the recognizer stops, what it took before that)
        let cases: [(&str, usize, &[Item]); 9] = [
            ("1 2\r", 2, &[1]),
            ("1 2x 3", 2, &[1]),
            ("1 5 3", 4, &[1, 5]),
            ("1 1", 2, &[1]),
            ("1  2", 2, &[1]),
            ("4 05", 2, &[4]),
            ("7 1000000000", 2, &[7]),
            ("7 8\t9", 2, &[7]),
            ("+1 2", 0, &[]),
        ];
        for (line, at, took) in cases {
            let mut items = Vec::new();
            let refused = canonical_line(line.as_bytes(), |item| items.push(item));
            assert_eq!((refused, &items[..]), (Err(at), took), "{line:?}");
            scan_bytes(line.as_bytes(), at, &mut items, 0).unwrap();
            assert_eq!(items, rule(line), "{line:?}");
        }
        // Not UTF-8 past the refused token: refused as a whole line.
        let mut items = Vec::new();
        assert!(scan_bytes(b"1 2 \xff 3", 4, &mut items, 0).is_err());
    }

    /// One seeded dirty line: runs of ids glued with the odd tokens and
    /// separators a hand-edited or exported file holds.
    fn dirty_line(rng: &mut crate::rng::StdRng) -> String {
        const TOKENS: [&str; 9] = [
            "+7",
            "007",
            "0",
            "1000000000",
            "4294967295",
            "4294967296",
            "x",
            "1\u{a0}2",
            "9",
        ];
        const SPACES: [&str; 7] = [" ", " ", " ", "\t", "  ", "\u{2003}", "\r"];
        let mut line = String::new();
        match rng.gen_range(0..8u32) {
            0 => return String::new(),
            1 => return SPACES[rng.gen_range(0..SPACES.len())].to_string(),
            _ => {}
        }
        let mut item = rng.gen_range(0..3000u32);
        for _ in 0..rng.gen_range(1..20u32) {
            match rng.gen_range(0..6u32) {
                0 => line.push_str(TOKENS[rng.gen_range(0..TOKENS.len())]),
                // A duplicate or an earlier id: out of order.
                1 => line.push_str(&item.saturating_sub(rng.gen_range(0..3u32)).to_string()),
                _ => {
                    item += rng.gen_range(1..400u32);
                    line.push_str(&item.to_string());
                }
            }
            line.push_str(SPACES[rng.gen_range(0..SPACES.len())]);
        }
        line
    }

    #[test]
    fn seeded_dirty_files_load_as_the_cleaning_rule_says() {
        let mut rng = crate::rng::StdRng::seed_from_u64(49);
        for case in 0..12 {
            let lines: Vec<String> = (0..400).map(|_| dirty_line(&mut rng)).collect();
            let newline = if case % 2 == 0 { "\n" } else { "\r\n" };
            let mut text = lines.join(newline);
            if case % 3 != 0 {
                text.push_str(newline);
            }
            let expected = rule_oracle(&text);
            let file = TempFile::new("dirty", &text);
            assert_eq!(read_dat(&file.0).unwrap(), expected.0, "case {case}");
            let len = text.len() as u64;
            for chunks in [1u64, 2, 3, 8] {
                let cuts: Vec<u64> = (1..chunks).map(|i| len / chunks * i).collect();
                let (arenas, offsets) = read_chunks(&file.0, &cuts, len).unwrap();
                let got = (flat(&arenas), offsets);
                assert_eq!(got, expected, "case {case} in {chunks} chunks");
            }
        }
    }

    #[test]
    fn a_file_that_is_not_utf8_is_refused_as_read_to_string_refuses_it() {
        for bytes in [&b"1 2\n3 \xff\n"[..], b"\xc3\x28 1\n", b"5\n6 7 \xe2\x82"] {
            let path = std::env::temp_dir().join(format!("yafim-io-utf8-{}", std::process::id()));
            std::fs::write(&path, bytes).unwrap();
            let expected = std::fs::read_to_string(&path).unwrap_err();
            for chunks in [1, 2, 3] {
                let cuts: Vec<u64> = (1..chunks).map(|i| i * 3).collect();
                let refused = read_chunks(&path, &cuts, bytes.len() as u64).unwrap_err();
                assert_eq!(refused.kind(), expected.kind());
                assert_eq!(refused.to_string(), expected.to_string());
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn a_row_too_short_leaves_no_trace_in_the_arena() {
        let mut rows = Rows::default();
        rows.push_row(0, |items| items.extend([1, 2, 3]));
        rows.push_row(2, |items| items.push(9));
        rows.push_row(0, |_| {});
        rows.push_row(2, |items| items.extend([4, 5]));
        assert_eq!(rows.len(), 3);
        let all: Vec<&[Item]> = rows.rows(0..3).collect();
        assert_eq!(all, [&[1, 2, 3][..], &[], &[4, 5]]);
        assert_eq!(rows.items(1..3), [4, 5]);
        // "1 2 3\n" + "\n" + "4 5\n", as `to_text` renders them.
        assert_eq!(rows.rendered_len(0..3), 6 + 1 + 4);
        assert_eq!(rows.rendered_len(1..1), 0);
        assert_eq!(rows.rows(2..3).next(), Some(&[4, 5][..]));
    }
}
