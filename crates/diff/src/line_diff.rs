//! Source-line diff (longest-common-subsequence).
//!
//! The simplest of the two "lightweight diff" frontends the paper mentions.
//! The structural AST diff ([`crate::stmt_diff`]) is what the DiSE pipeline
//! actually consumes; the line diff is kept for display and for
//! cross-checking that a mutant really differs from its base in the
//! expected number of places.

/// One edit in a line diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineEdit {
    /// Line present in both versions (1-based line numbers in each).
    Common {
        /// Line number in the base version.
        base_line: u32,
        /// Line number in the modified version.
        mod_line: u32,
        /// The text.
        text: String,
    },
    /// Line only in the base version.
    Removed {
        /// Line number in the base version.
        base_line: u32,
        /// The text.
        text: String,
    },
    /// Line only in the modified version.
    Added {
        /// Line number in the modified version.
        mod_line: u32,
        /// The text.
        text: String,
    },
}

/// Computes an LCS diff between two texts, line by line.
///
/// # Examples
///
/// ```
/// use dise_diff::{line_diff, LineEdit};
///
/// let edits = line_diff("a\nb\nc", "a\nx\nc");
/// let removed: Vec<_> = edits
///     .iter()
///     .filter(|e| matches!(e, LineEdit::Removed { .. }))
///     .collect();
/// assert_eq!(removed.len(), 1);
/// ```
pub fn line_diff(base: &str, modified: &str) -> Vec<LineEdit> {
    let base_lines: Vec<&str> = base.lines().collect();
    let mod_lines: Vec<&str> = modified.lines().collect();
    let matched = lcs_table(&base_lines, &mod_lines, |a, b| a == b);

    let mut edits = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    for &(bi, mj) in &matched {
        while i < bi {
            edits.push(LineEdit::Removed {
                base_line: (i + 1) as u32,
                text: base_lines[i].to_string(),
            });
            i += 1;
        }
        while j < mj {
            edits.push(LineEdit::Added {
                mod_line: (j + 1) as u32,
                text: mod_lines[j].to_string(),
            });
            j += 1;
        }
        edits.push(LineEdit::Common {
            base_line: (bi + 1) as u32,
            mod_line: (mj + 1) as u32,
            text: base_lines[bi].to_string(),
        });
        i = bi + 1;
        j = mj + 1;
    }
    while i < base_lines.len() {
        edits.push(LineEdit::Removed {
            base_line: (i + 1) as u32,
            text: base_lines[i].to_string(),
        });
        i += 1;
    }
    while j < mod_lines.len() {
        edits.push(LineEdit::Added {
            mod_line: (j + 1) as u32,
            text: mod_lines[j].to_string(),
        });
        j += 1;
    }
    edits
}

/// Generic LCS: returns the matched index pairs `(base_idx, mod_idx)` in
/// order. Shared with the statement diff.
///
/// The pairs are those of the textbook walk over the full LCS table: pair
/// the current elements when they match, else skip the base element unless
/// that loses length. The common prefix and suffix are paired without a
/// table. The walk pairs a matching prefix on sight. It also pairs a
/// matching suffix diagonally, unless it leaves the middle on one side
/// with an unpaired element that matches the suffix's first element on the
/// other side. Only then is the table built over the suffix too, so an
/// untouched sequence never builds one.
pub(crate) fn lcs_table<T>(
    base: &[T],
    modified: &[T],
    eq: impl Fn(&T, &T) -> bool,
) -> Vec<(usize, usize)> {
    let (n, m) = (base.len(), modified.len());
    let prefix = (0..n.min(m))
        .take_while(|&i| eq(&base[i], &modified[i]))
        .count();
    let suffix = (0..n.min(m) - prefix)
        .take_while(|&k| eq(&base[n - 1 - k], &modified[m - 1 - k]))
        .count();
    let (base_end, mod_end) = (n - suffix, m - suffix);
    let mut pairs: Vec<(usize, usize)> = (0..prefix).map(|i| (i, i)).collect();
    let (i, j) = lcs_walk(
        &base[prefix..base_end],
        &modified[prefix..mod_end],
        &eq,
        prefix,
        &mut pairs,
    );
    // Where the walk stopped, the full walk would go on into the suffix:
    // past unpaired elements that cannot match the suffix's first element,
    // then diagonally.
    let diagonal = suffix == 0
        || (i == base_end && modified[j..mod_end].iter().all(|x| !eq(&base[base_end], x)))
        || (j == mod_end && base[i..base_end].iter().all(|x| !eq(x, &modified[mod_end])));
    if diagonal {
        pairs.extend((0..suffix).map(|k| (base_end + k, mod_end + k)));
    } else {
        pairs.truncate(prefix);
        lcs_walk(
            &base[prefix..],
            &modified[prefix..],
            &eq,
            prefix,
            &mut pairs,
        );
    }
    pairs
}

/// The table walk of [`lcs_table`] over `base` and `modified`, both
/// starting at index `offset` of the full sequences. Appends the pairs and
/// returns where the walk stopped.
fn lcs_walk<T>(
    base: &[T],
    modified: &[T],
    eq: &impl Fn(&T, &T) -> bool,
    offset: usize,
    pairs: &mut Vec<(usize, usize)>,
) -> (usize, usize) {
    let (n, m) = (base.len(), modified.len());
    if n == 0 || m == 0 {
        return (offset, offset);
    }
    // cell(i, j) = LCS length of base[i..], modified[j..], shifted left
    // one bit; the low bit records whether base[i] and modified[j] match,
    // so the walk does not compare them again.
    let width = m + 1;
    let len = |cell: u32| cell >> 1;
    let mut table = vec![0u32; (n + 1) * width];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            table[i * width + j] = if eq(&base[i], &modified[j]) {
                ((len(table[(i + 1) * width + j + 1]) + 1) << 1) | 1
            } else {
                len(table[(i + 1) * width + j]).max(len(table[i * width + j + 1])) << 1
            };
        }
    }
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if table[i * width + j] & 1 == 1 {
            pairs.push((offset + i, offset + j));
            i += 1;
            j += 1;
        } else if len(table[(i + 1) * width + j]) >= len(table[i * width + j + 1]) {
            i += 1;
        } else {
            j += 1;
        }
    }
    (offset + i, offset + j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(edits: &[LineEdit]) -> String {
        edits
            .iter()
            .map(|e| match e {
                LineEdit::Common { .. } => '=',
                LineEdit::Removed { .. } => '-',
                LineEdit::Added { .. } => '+',
            })
            .collect()
    }

    #[test]
    fn identical_texts_are_all_common() {
        let edits = line_diff("a\nb", "a\nb");
        assert_eq!(kinds(&edits), "==");
    }

    #[test]
    fn single_line_change_is_remove_plus_add() {
        let edits = line_diff("a\nb\nc", "a\nx\nc");
        assert_eq!(kinds(&edits), "=-+=");
    }

    #[test]
    fn pure_insertion() {
        let edits = line_diff("a\nc", "a\nb\nc");
        assert_eq!(kinds(&edits), "=+=");
        let LineEdit::Added { mod_line, text } = &edits[1] else {
            panic!("expected Added");
        };
        assert_eq!(*mod_line, 2);
        assert_eq!(text, "b");
    }

    #[test]
    fn pure_deletion() {
        let edits = line_diff("a\nb\nc", "a\nc");
        assert_eq!(kinds(&edits), "=-=");
    }

    #[test]
    fn empty_inputs() {
        assert!(line_diff("", "").is_empty());
        assert_eq!(kinds(&line_diff("", "x")), "+");
        assert_eq!(kinds(&line_diff("x", "")), "-");
    }

    #[test]
    fn line_numbers_are_one_based_and_tracked() {
        let edits = line_diff("a\nb", "b");
        // 'a' removed from line 1; 'b' common (base 2, mod 1).
        assert_eq!(
            edits,
            vec![
                LineEdit::Removed {
                    base_line: 1,
                    text: "a".into()
                },
                LineEdit::Common {
                    base_line: 2,
                    mod_line: 1,
                    text: "b".into()
                },
            ]
        );
    }

    #[test]
    fn lcs_prefers_longest_match() {
        let pairs = lcs_table(&["a", "b", "a"], &["b", "a"], |x, y| x == y);
        assert_eq!(pairs.len(), 2); // "b a"
    }

    /// The table walk over the whole sequences, without prefix or suffix
    /// trimming: the reference [`lcs_table`] must reproduce exactly.
    fn full_table_lcs<T>(
        base: &[T],
        modified: &[T],
        eq: impl Fn(&T, &T) -> bool,
    ) -> Vec<(usize, usize)> {
        let (n, m) = (base.len(), modified.len());
        let mut dp = vec![vec![0usize; m + 1]; n + 1];
        for i in (0..n).rev() {
            for j in (0..m).rev() {
                dp[i][j] = if eq(&base[i], &modified[j]) {
                    dp[i + 1][j + 1] + 1
                } else {
                    dp[i + 1][j].max(dp[i][j + 1])
                };
            }
        }
        let mut pairs = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < n && j < m {
            if eq(&base[i], &modified[j]) && dp[i][j] == dp[i + 1][j + 1] + 1 {
                pairs.push((i, j));
                i += 1;
                j += 1;
            } else if dp[i + 1][j] >= dp[i][j + 1] {
                i += 1;
            } else {
                j += 1;
            }
        }
        pairs
    }

    #[test]
    fn trimmed_lcs_pairs_exactly_like_the_full_table() {
        // Small alphabets make repeated elements common, which is where a
        // trimmed suffix could pair differently. The second relation is
        // not transitive.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let relations: [fn(&u64, &u64) -> bool; 2] = [|a, b| a == b, |a, b| a.abs_diff(*b) <= 1];
        for case in 0..4000 {
            let alphabet = 2 + case % 4;
            let base: Vec<u64> = (0..next(10)).map(|_| next(alphabet)).collect();
            let mut modified = base.clone();
            for _ in 0..next(4) {
                let at = next(modified.len() as u64 + 1) as usize;
                match next(3) {
                    0 => modified.insert(at, next(alphabet)),
                    1 if at < modified.len() => {
                        modified.remove(at);
                    }
                    _ if at < modified.len() => modified[at] = next(alphabet),
                    _ => {}
                }
            }
            for eq in relations {
                assert_eq!(
                    lcs_table(&base, &modified, eq),
                    full_table_lcs(&base, &modified, eq),
                    "{base:?} vs {modified:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_suffix_element_pairs_with_its_first_match() {
        // The full walk pairs base's `a` with the first `a`, not the one
        // a trimmed suffix would pick.
        assert_eq!(
            lcs_table(&["x", "a"], &["x", "a", "a"], |a, b| a == b),
            vec![(0, 0), (1, 1)]
        );
    }
}
