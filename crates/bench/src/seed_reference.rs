//! Verbatim copies of the **seed** similarity implementations (commit
//! 3b2e080): the "seed per-pair path" kept as a test oracle for the
//! profiled featurization path.
//!
//! These keep the seed's redundancies on purpose: `levenshtein_sim`
//! normalizes its inputs and `levenshtein_distance` normalizes them again,
//! `jaro_winkler` re-normalizes for the prefix, and every token coefficient
//! re-runs `words()` + `token_set()` per call. Do not "fix" them — their
//! waste *is* the baseline. The satellite cleanups in `morer_sim` preserve
//! these functions' outputs bit-for-bit (asserted by the workspace test
//! `seed_reference_matches_profiled_featurization`), they only remove the
//! recomputation.

#![allow(dead_code)]

use morer_data::record::MultiSourceDataset;
use morer_ml::dataset::FeatureMatrix;
use morer_sim::numeric::{date_sim, normalized_diff_sim, parse_numeric, year_sim};
use morer_sim::{ComparisonScheme, MissingValuePolicy, SimilarityFunction};

/// Seed `clamp_unit`.
#[inline]
fn clamp_unit(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, 1.0)
    }
}

/// Normalize a raw attribute value: lowercase and collapse every
/// non-alphanumeric run into a single space.
///
/// This is the canonical preprocessing applied before word tokenization so
/// that `"Ultra-HD  Smart TV!"` and `"ultra hd smart tv"` compare equal.
fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Split a string into lowercase word tokens (alphanumeric runs).
fn words(s: &str) -> Vec<String> {
    normalize(s)
        .split(' ')
        .filter(|t| !t.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Produce the multiset of character q-grams of `s` (as byte-window strings
/// over the normalized form).
///
/// When `padded` is true the string is framed with `q - 1` leading `#` and
/// trailing `$` sentinel characters, which gives extra weight to matching
/// prefixes/suffixes — the classic Febrl behaviour.
fn qgrams(s: &str, q: usize, padded: bool) -> Vec<String> {
    assert!(q >= 1, "q-gram size must be at least 1");
    let norm = normalize(s);
    let mut chars: Vec<char> = Vec::with_capacity(norm.len() + 2 * (q - 1));
    if padded {
        chars.extend(std::iter::repeat_n('#', q - 1));
    }
    chars.extend(norm.chars());
    if padded {
        chars.extend(std::iter::repeat_n('$', q - 1));
    }
    if chars.len() < q {
        if chars.is_empty() {
            return Vec::new();
        }
        return vec![chars.iter().collect()];
    }
    chars.windows(q).map(|w| w.iter().collect()).collect()
}

/// Sorted, deduplicated token set — the representation used by the set-based
/// similarity coefficients.
fn token_set(tokens: &[String]) -> Vec<&str> {
    let mut set: Vec<&str> = tokens.iter().map(String::as_str).collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Size of the intersection of two *sorted deduplicated* slices.
fn sorted_intersection_len(a: &[&str], b: &[&str]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}


/// Jaccard coefficient over word token sets: `|A ∩ B| / |A ∪ B|`.
///
/// This is the function the paper illustrates in Fig. 2 (`jaccard(title)`).
fn jaccard_tokens(a: &str, b: &str) -> f64 {
    let (ta, tb) = (words(a), words(b));
    let (sa, sb) = (token_set(&ta), token_set(&tb));
    set_jaccard(&sa, &sb)
}

/// Jaccard coefficient over character q-gram sets.
fn jaccard_qgrams(a: &str, b: &str, q: usize) -> f64 {
    let (ga, gb) = (qgrams(a, q, true), qgrams(b, q, true));
    let (sa, sb) = (token_set(&ga), token_set(&gb));
    set_jaccard(&sa, &sb)
}

/// Sørensen–Dice coefficient over word token sets: `2|A ∩ B| / (|A| + |B|)`.
fn dice_tokens(a: &str, b: &str) -> f64 {
    let (ta, tb) = (words(a), words(b));
    let (sa, sb) = (token_set(&ta), token_set(&tb));
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sorted_intersection_len(&sa, &sb) as f64;
    clamp_unit(2.0 * inter / (sa.len() + sb.len()) as f64)
}

/// Overlap coefficient over word token sets: `|A ∩ B| / min(|A|, |B|)`.
fn overlap_tokens(a: &str, b: &str) -> f64 {
    let (ta, tb) = (words(a), words(b));
    let (sa, sb) = (token_set(&ta), token_set(&tb));
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sorted_intersection_len(&sa, &sb) as f64;
    clamp_unit(inter / sa.len().min(sb.len()) as f64)
}

/// Cosine similarity over binary word token vectors:
/// `|A ∩ B| / sqrt(|A| · |B|)`.
fn cosine_tokens(a: &str, b: &str) -> f64 {
    let (ta, tb) = (words(a), words(b));
    let (sa, sb) = (token_set(&ta), token_set(&tb));
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sorted_intersection_len(&sa, &sb) as f64;
    clamp_unit(inter / ((sa.len() as f64) * (sb.len() as f64)).sqrt())
}

fn set_jaccard(sa: &[&str], sb: &[&str]) -> f64 {
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sorted_intersection_len(sa, sb);
    let union = sa.len() + sb.len() - inter;
    clamp_unit(inter as f64 / union as f64)
}

/// Raw Levenshtein edit distance between the normalized forms of `a` and `b`.
///
/// Uses the classic two-row dynamic program, O(|a|·|b|) time and O(min) space.
fn levenshtein_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Normalized Levenshtein similarity: `1 − dist / max(|a|, |b|)`.
fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    let max_len = na.chars().count().max(nb.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    clamp_unit(1.0 - levenshtein_distance(a, b) as f64 / max_len as f64)
}

/// Jaro similarity between the normalized forms of `a` and `b`.
fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                matches_a.push(*ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = b
        .iter()
        .zip(b_used.iter())
        .filter_map(|(c, used)| used.then_some(*c))
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(matches_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    let t = transpositions as f64;
    clamp_unit((m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0)
}

/// Jaro-Winkler similarity with the standard prefix scale of 0.1 and a
/// maximum common-prefix credit of 4 characters.
fn jaro_winkler(a: &str, b: &str) -> f64 {
    let base = jaro(a, b);
    let na: Vec<char> = normalize(a).chars().collect();
    let nb: Vec<char> = normalize(b).chars().collect();
    let prefix = na
        .iter()
        .zip(nb.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    clamp_unit(base + prefix * 0.1 * (1.0 - base))
}

/// Longest common substring similarity: `|lcs| / min(|a|, |b|)` on the
/// normalized forms.
fn lcs_substring_sim(a: &str, b: &str) -> f64 {
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut best = 0usize;
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for ca in &a {
        for (j, cb) in b.iter().enumerate() {
            cur[j + 1] = if ca == cb { prev[j] + 1 } else { 0 };
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    clamp_unit(best as f64 / a.len().min(b.len()) as f64)
}

/// Monge-Elkan similarity: for each token of `a`, the best Jaro-Winkler match
/// among the tokens of `b`, averaged; symmetrized by taking the mean of both
/// directions.
fn monge_elkan(a: &str, b: &str) -> f64 {
    let ta = words(a);
    let tb = words(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let dir = |xs: &[String], ys: &[String]| -> f64 {
        xs.iter()
            .map(|x| {
                ys.iter()
                    .map(|y| jaro_winkler(x, y))
                    .fold(0.0f64, f64::max)
            })
            .sum::<f64>()
            / xs.len() as f64
    };
    clamp_unit((dir(&ta, &tb) + dir(&tb, &ta)) / 2.0)
}

/// Exact-match similarity on normalized forms: `1.0` if equal, else `0.0`.
fn exact(a: &str, b: &str) -> f64 {
    if normalize(a) == normalize(b) {
        1.0
    } else {
        0.0
    }
}

/// Smith-Waterman local-alignment similarity with the classic record-linkage
/// scoring (match +2, mismatch −1, gap −1), normalized by the best possible
/// score of the shorter string: `best_local_score / (2 · min(|a|, |b|))`.
///
/// Rewards long shared substrings even when embedded in unrelated context —
/// useful for titles that wrap a common product name in vendor boilerplate.
fn smith_waterman(a: &str, b: &str) -> f64 {
    const MATCH: i32 = 2;
    const MISMATCH: i32 = -1;
    const GAP: i32 = -1;
    let a: Vec<char> = normalize(a).chars().collect();
    let b: Vec<char> = normalize(b).chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut prev = vec![0i32; b.len() + 1];
    let mut cur = vec![0i32; b.len() + 1];
    let mut best = 0i32;
    for ca in &a {
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j] + if ca == cb { MATCH } else { MISMATCH };
            let up = prev[j + 1] + GAP;
            let left = cur[j] + GAP;
            cur[j + 1] = diag.max(up).max(left).max(0);
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
        cur[0] = 0;
    }
    let denom = (MATCH as f64) * a.len().min(b.len()) as f64;
    clamp_unit(best as f64 / denom)
}


/// Seed `SimilarityFunction::apply` (dispatch to the seed implementations).
fn seed_apply(function: SimilarityFunction, a: &str, b: &str) -> f64 {
    match function {
        SimilarityFunction::JaccardTokens => jaccard_tokens(a, b),
        SimilarityFunction::JaccardQgrams(q) => jaccard_qgrams(a, b, q),
        SimilarityFunction::DiceTokens => dice_tokens(a, b),
        SimilarityFunction::OverlapTokens => overlap_tokens(a, b),
        SimilarityFunction::CosineTokens => cosine_tokens(a, b),
        SimilarityFunction::Levenshtein => levenshtein_sim(a, b),
        SimilarityFunction::JaroWinkler => jaro_winkler(a, b),
        SimilarityFunction::LcsSubstring => lcs_substring_sim(a, b),
        SimilarityFunction::MongeElkan => monge_elkan(a, b),
        SimilarityFunction::Exact => exact(a, b),
        SimilarityFunction::NumericDiff => match (parse_numeric(a), parse_numeric(b)) {
            (Some(x), Some(y)) => normalized_diff_sim(x, y),
            _ => 0.0,
        },
        SimilarityFunction::Year => match (parse_numeric(a), parse_numeric(b)) {
            (Some(x), Some(y)) => year_sim(x as i32, y as i32),
            _ => 0.0,
        },
        SimilarityFunction::SmithWaterman => smith_waterman(a, b),
        SimilarityFunction::Date { tolerance_days } => date_sim(a, b, f64::from(tolerance_days)),
    }
}

/// Seed `ErProblem::build` feature loop: per-pair string comparison with the
/// seed similarity functions. Returns the feature matrix only (labels are
/// not part of the hot path).
pub fn seed_build_features(
    dataset: &MultiSourceDataset,
    scheme: &ComparisonScheme,
    pairs: &[(u32, u32)],
) -> FeatureMatrix {
    let mut features = FeatureMatrix::new(scheme.num_features());
    for &(a, b) in pairs {
        let ra = dataset.record(a);
        let rb = dataset.record(b);
        let row: Vec<f64> = scheme
            .comparators()
            .iter()
            .map(|c| {
                match (
                    ra.values[c.attribute].as_deref(),
                    rb.values[c.attribute].as_deref(),
                ) {
                    (Some(x), Some(y)) => seed_apply(c.function, x, y),
                    _ => match c.missing {
                        MissingValuePolicy::Zero => 0.0,
                        MissingValuePolicy::Constant(v) => v.clamp(0.0, 1.0),
                    },
                }
            })
            .collect();
        features.push_row(&row);
    }
    features
}
