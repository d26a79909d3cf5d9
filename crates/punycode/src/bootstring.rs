//! The Bootstring algorithm with the Punycode parameters (RFC 3492).
//!
//! Bootstring represents a sequence of Unicode code points as a sequence of
//! "basic" (ASCII) code points: the basic code points of the input are
//! copied literally, then each non-basic code point is encoded as a
//! generalized-variable-length-integer *delta* that tells the decoder where
//! to insert it. Punycode instantiates Bootstring with:
//!
//! ```text
//! base = 36, tmin = 1, tmax = 26, skew = 38, damp = 700,
//! initial_bias = 72, initial_n = 0x80, delimiter = '-'
//! ```
//!
//! All arithmetic is checked; inputs that would overflow the RFC's 32-bit
//! model are rejected with [`PunycodeError::Overflow`] rather than wrapping.

use crate::PunycodeError;

const BASE: u32 = 36;
const TMIN: u32 = 1;
const TMAX: u32 = 26;
const SKEW: u32 = 38;
const DAMP: u32 = 700;
const INITIAL_BIAS: u32 = 72;
const INITIAL_N: u32 = 0x80;
const DELIMITER: u8 = b'-';

/// Maps a digit value `0..36` to its lowercase basic code point
/// (`a..z` = 0..25, `0..9` = 26..35).
fn encode_digit(d: u32) -> u8 {
    debug_assert!(d < BASE);
    if d < 26 {
        b'a' + d as u8
    } else {
        b'0' + (d - 26) as u8
    }
}

/// Maps a basic code point to its digit value, case-insensitively.
fn decode_digit(b: u8) -> Option<u32> {
    match b {
        b'a'..=b'z' => Some(u32::from(b - b'a')),
        b'A'..=b'Z' => Some(u32::from(b - b'A')),
        b'0'..=b'9' => Some(u32::from(b - b'0') + 26),
        _ => None,
    }
}

/// Bias adaptation (RFC 3492 §3.4).
fn adapt(mut delta: u32, num_points: u32, first_time: bool) -> u32 {
    delta /= if first_time { DAMP } else { 2 };
    delta += delta / num_points;
    let mut k = 0;
    while delta > ((BASE - TMIN) * TMAX) / 2 {
        delta /= BASE - TMIN;
        k += BASE;
    }
    k + (((BASE - TMIN + 1) * delta) / (delta + SKEW))
}

/// The threshold `t` of digit position `k` under `bias` (RFC 3492 §6).
fn threshold(k: u32, bias: u32) -> u32 {
    if k <= bias {
        TMIN
    } else if k >= bias + TMAX {
        TMAX
    } else {
        k - bias
    }
}

/// Encodes `input` to its Punycode form (RFC 3492 §6.3).
///
/// The output contains only basic code points. Inputs consisting solely of
/// basic code points are valid and produce `input + "-"`; ACE-level logic
/// (deciding whether to encode at all) lives in [`crate::ace`].
pub fn encode(input: &str) -> Result<String, PunycodeError> {
    let code_points: Vec<u32> = input.chars().map(u32::from).collect();
    let mut output = String::with_capacity(input.len());
    encode_into(&code_points, &mut output)?;
    Ok(output)
}

/// Encodes the code points `input` to Punycode, appending to `out`:
/// the allocation-free form of [`encode`] once `out` has room. On error
/// `out` is left as it was.
pub fn encode_into(input: &[u32], out: &mut String) -> Result<(), PunycodeError> {
    let start = out.len();
    let result = encode_with(input, |b| out.push(char::from(b)));
    if result.is_err() {
        out.truncate(start);
    }
    result
}

/// Whether `input` encodes to exactly `expected`, read ASCII-lowercased:
/// the RFC 3492 round-trip check of a decoded ACE label, run without an
/// output buffer. The encoder always runs to the end, so an encoding
/// error wins over a mismatch as it would for [`encode`] followed by a
/// comparison.
pub(crate) fn encodes_to(input: &[u32], expected: &[u8]) -> Result<bool, PunycodeError> {
    let mut at = 0;
    let mut equal = true;
    encode_with(input, |b| {
        equal &= expected
            .get(at)
            .is_some_and(|e| e.to_ascii_lowercase() == b);
        at += 1;
    })?;
    Ok(equal && at == expected.len())
}

/// The encoder (RFC 3492 §6.3), handing each output byte to `emit`.
fn encode_with(input: &[u32], mut emit: impl FnMut(u8)) -> Result<(), PunycodeError> {
    // Copy basic code points, then the delimiter (if any basics were copied).
    let mut basic_count: u32 = 0;
    for &cp in input {
        if cp < INITIAL_N {
            emit(cp as u8);
            basic_count += 1;
        }
    }
    if basic_count > 0 {
        emit(DELIMITER);
    }

    let mut n = INITIAL_N;
    let mut delta: u32 = 0;
    let mut bias = INITIAL_BIAS;
    let mut handled = basic_count; // code points encoded/copied so far

    while (handled as usize) < input.len() {
        // Find the smallest un-handled code point >= n.
        let m = input
            .iter()
            .copied()
            .filter(|&cp| cp >= n)
            .min()
            .expect("at least one remaining code point");

        let width = handled
            .checked_add(1)
            .ok_or(PunycodeError::Overflow)?;
        delta = delta
            .checked_add(
                (m - n)
                    .checked_mul(width)
                    .ok_or(PunycodeError::Overflow)?,
            )
            .ok_or(PunycodeError::Overflow)?;
        n = m;

        for &cp in input {
            if cp < n {
                delta = delta.checked_add(1).ok_or(PunycodeError::Overflow)?;
            }
            if cp == n {
                // Encode delta as a variable-length integer.
                let mut q = delta;
                let mut k = BASE;
                loop {
                    let t = threshold(k, bias);
                    if q < t {
                        break;
                    }
                    emit(encode_digit(t + (q - t) % (BASE - t)));
                    q = (q - t) / (BASE - t);
                    k += BASE;
                }
                emit(encode_digit(q));
                bias = adapt(delta, handled + 1, handled == basic_count);
                delta = 0;
                handled += 1;
            }
        }
        delta = delta.checked_add(1).ok_or(PunycodeError::Overflow)?;
        n = n.checked_add(1).ok_or(PunycodeError::Overflow)?;
    }
    Ok(())
}

/// Decodes a Punycode string back to Unicode (RFC 3492 §6.2).
pub fn decode(input: &str) -> Result<String, PunycodeError> {
    let mut code_points = Vec::with_capacity(input.len());
    decode_into(input, &mut code_points)?;
    crate::collect_chars(&code_points)
}

/// Decodes a Punycode string, appending its code points to `out`: the
/// allocation-free form of [`decode`] once `out` has room. Basic code
/// points keep their case, and every inserted one is a Unicode scalar
/// value. On error `out` is left as it was.
pub fn decode_into(input: &str, out: &mut Vec<u32>) -> Result<(), PunycodeError> {
    let start = out.len();
    let result = decode_at(input, out, start);
    if result.is_err() {
        out.truncate(start);
    }
    result
}

/// [`decode_into`]'s body: the label's code points go to `out[start..]`.
fn decode_at(input: &str, out: &mut Vec<u32>, start: usize) -> Result<(), PunycodeError> {
    // Split at the last delimiter: everything before is literal basic
    // code points; everything after is the extended part.
    let (basic_part, extended) = match input.rfind(char::from(DELIMITER)) {
        Some(pos) => (&input[..pos], &input[pos + 1..]),
        None => ("", input),
    };
    if let Some(c) = basic_part.chars().find(|c| !c.is_ascii()) {
        return Err(PunycodeError::NonBasic(c));
    }
    out.extend(basic_part.bytes().map(u32::from));

    let mut n = INITIAL_N;
    let mut i: u32 = 0;
    let mut bias = INITIAL_BIAS;

    // Every byte before `pos` was a digit, so `pos` is a char boundary.
    let digits = extended.as_bytes();
    let mut pos = 0;
    while pos < digits.len() {
        let old_i = i;
        let mut w: u32 = 1;
        let mut k = BASE;
        loop {
            let &b = digits.get(pos).ok_or(PunycodeError::Overflow)?;
            let digit = decode_digit(b).ok_or_else(|| {
                let c = extended[pos..].chars().next();
                PunycodeError::InvalidDigit(c.expect("pos is a char boundary below the end"))
            })?;
            pos += 1;
            i = i
                .checked_add(digit.checked_mul(w).ok_or(PunycodeError::Overflow)?)
                .ok_or(PunycodeError::Overflow)?;
            let t = threshold(k, bias);
            if digit < t {
                break;
            }
            w = w.checked_mul(BASE - t).ok_or(PunycodeError::Overflow)?;
            k += BASE;
        }

        let len_plus_one = ((out.len() - start) as u32)
            .checked_add(1)
            .ok_or(PunycodeError::Overflow)?;
        bias = adapt(i - old_i, len_plus_one, old_i == 0);
        n = n
            .checked_add(i / len_plus_one)
            .ok_or(PunycodeError::Overflow)?;
        i %= len_plus_one;

        if char::from_u32(n).is_none() {
            return Err(PunycodeError::InvalidCodePoint(n));
        }
        out.insert(start + i as usize, n);
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vectors from RFC 3492 §7.1 and from the paper itself.
    #[test]
    fn rfc3492_sample_strings() {
        // (A) Arabic (Egyptian).
        let arabic: String = [
            0x0644u32, 0x064A, 0x0647, 0x0645, 0x0627, 0x0628, 0x062A, 0x0643, 0x0644, 0x0645,
            0x0648, 0x0634, 0x0639, 0x0631, 0x0628, 0x064A, 0x061F,
        ]
        .iter()
        .map(|&v| char::from_u32(v).unwrap())
        .collect();
        assert_eq!(encode(&arabic).unwrap(), "egbpdaj6bu4bxfgehfvwxn");
        assert_eq!(decode("egbpdaj6bu4bxfgehfvwxn").unwrap(), arabic);

        // (B) Chinese (simplified).
        let chinese: String = [
            0x4ED6u32, 0x4EEC, 0x4E3A, 0x4EC0, 0x4E48, 0x4E0D, 0x8BF4, 0x4E2D, 0x6587,
        ]
        .iter()
        .map(|&v| char::from_u32(v).unwrap())
        .collect();
        assert_eq!(encode(&chinese).unwrap(), "ihqwcrb4cv8a8dqg056pqjye");
        assert_eq!(decode("ihqwcrb4cv8a8dqg056pqjye").unwrap(), chinese);

        // (I) Russian (Cyrillic).
        let russian: String = [
            0x043Fu32, 0x043E, 0x0447, 0x0435, 0x043C, 0x0443, 0x0436, 0x0435, 0x043E, 0x043D,
            0x0438, 0x043D, 0x0435, 0x0433, 0x043E, 0x0432, 0x043E, 0x0440, 0x044F, 0x0442, 0x043F,
            0x043E, 0x0440, 0x0443, 0x0441, 0x0441, 0x043A, 0x0438,
        ]
        .iter()
        .map(|&v| char::from_u32(v).unwrap())
        .collect();
        assert_eq!(encode(&russian).unwrap(), "b1abfaaepdrnnbgefbadotcwatmq2g4l");
    }

    /// RFC 3492 §7.1 vectors (mixed-case basic code points included)
    /// and the paper's 阿里巴巴 through `decode_into`, which appends
    /// after what the buffer already holds; `encode_into` gives the
    /// Punycode back.
    #[test]
    fn decode_into_appends_the_rfc_vectors() {
        let vectors: [(&str, &[u32]); 9] = [
            // (C) Chinese (traditional).
            (
                "ihqwctvzc91f659drss3x8bo0yb",
                &[
                    0x4ED6, 0x5011, 0x7232, 0x4EC0, 0x9EBD, 0x4E0D, 0x8AAA, 0x4E2D, 0x6587,
                ],
            ),
            // (D) Czech.
            (
                "Proprostnemluvesky-uyb24dma41a",
                &[
                    0x50, 0x72, 0x6F, 0x10D, 0x70, 0x72, 0x6F, 0x73, 0x74, 0x11B, 0x6E, 0x65, 0x6D,
                    0x6C, 0x75, 0x76, 0xED, 0x10D, 0x65, 0x73, 0x6B, 0x79,
                ],
            ),
            // (E) Hebrew.
            (
                "4dbcagdahymbxekheh6e0a7fei0b",
                &[
                    0x5DC, 0x5DE, 0x5D4, 0x5D4, 0x5DD, 0x5E4, 0x5E9, 0x5D5, 0x5D8, 0x5DC, 0x5D0,
                    0x5DE, 0x5D3, 0x5D1, 0x5E8, 0x5D9, 0x5DD, 0x5E2, 0x5D1, 0x5E8, 0x5D9, 0x5EA,
                ],
            ),
            // (I) Russian (Cyrillic).
            (
                "b1abfaaepdrnnbgefbadotcwatmq2g4l",
                &[
                    0x43F, 0x43E, 0x447, 0x435, 0x43C, 0x443, 0x436, 0x435, 0x43E, 0x43D, 0x438,
                    0x43D, 0x435, 0x433, 0x43E, 0x432, 0x43E, 0x440, 0x44F, 0x442, 0x43F, 0x43E,
                    0x440, 0x443, 0x441, 0x441, 0x43A, 0x438,
                ],
            ),
            // (L) 3<nen>B<gumi><kinpachi><sensei>.
            (
                "3B-ww4c5e180e575a65lsy2b",
                &[0x33, 0x5E74, 0x42, 0x7D44, 0x91D1, 0x516B, 0x5148, 0x751F],
            ),
            // (M) <amuro><namie>-with-SUPER-MONKEYS.
            (
                "-with-SUPER-MONKEYS-pc58ag80a8qai00g7n9n",
                &[
                    0x5B89, 0x5BA4, 0x5948, 0x7F8E, 0x6075, 0x2D, 0x77, 0x69, 0x74, 0x68, 0x2D,
                    0x53, 0x55, 0x50, 0x45, 0x52, 0x2D, 0x4D, 0x4F, 0x4E, 0x4B, 0x45, 0x59, 0x53,
                ],
            ),
            // (R) <sono><supiido><de>.
            (
                "d9juau41awczczp",
                &[0x305D, 0x306E, 0x30B9, 0x30D4, 0x30FC, 0x30C9, 0x3067],
            ),
            // (S) -> $1.00 <-, all basic.
            (
                "-> $1.00 <--",
                &[
                    0x2D, 0x3E, 0x20, 0x24, 0x31, 0x2E, 0x30, 0x30, 0x20, 0x3C, 0x2D,
                ],
            ),
            // Paper §2.1: 阿里巴巴.
            ("tsta8290bfzd", &[0x963F, 0x91CC, 0x5DF4, 0x5DF4]),
        ];
        let mut out = vec![u32::from('x')];
        let mut encoded = String::from("x");
        for (punycode, code_points) in vectors {
            out.truncate(1);
            decode_into(punycode, &mut out).unwrap();
            assert_eq!(&out[1..], code_points, "{punycode}");
            encoded.truncate(1);
            encode_into(code_points, &mut encoded).unwrap();
            assert_eq!(&encoded[1..], punycode);
        }
    }

    #[test]
    fn decode_into_leaves_the_buffer_on_error() {
        let mut out = vec![1, 2, 3];
        assert_eq!(
            decode_into("ab!c", &mut out),
            Err(PunycodeError::InvalidDigit('!'))
        );
        assert_eq!(
            decode_into("b\u{FC}-kva", &mut out),
            Err(PunycodeError::NonBasic('\u{FC}'))
        );
        assert_eq!(
            decode_into("abc-99999999", &mut out),
            Err(PunycodeError::Overflow)
        );
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn paper_examples() {
        // §2.1: "阿里巴巴" ⇒ "tsta8290bfzd".
        assert_eq!(encode("阿里巴巴").unwrap(), "tsta8290bfzd");
        assert_eq!(decode("tsta8290bfzd").unwrap(), "阿里巴巴");
        // §2.2: "facébook" ⇒ "facbook-dya".
        assert_eq!(encode("facébook").unwrap(), "facbook-dya");
        assert_eq!(decode("facbook-dya").unwrap(), "facébook");
    }

    #[test]
    fn well_known_labels() {
        assert_eq!(encode("bücher").unwrap(), "bcher-kva");
        assert_eq!(decode("bcher-kva").unwrap(), "bücher");
    }

    #[test]
    fn all_basic_input_gets_trailing_delimiter() {
        assert_eq!(encode("abc").unwrap(), "abc-");
        assert_eq!(decode("abc-").unwrap(), "abc");
    }

    #[test]
    fn empty_input() {
        assert_eq!(encode("").unwrap(), "");
        assert_eq!(decode("").unwrap(), "");
    }

    #[test]
    fn decode_rejects_invalid_digit() {
        assert!(matches!(decode("ab!c"), Err(PunycodeError::InvalidDigit('!'))));
    }

    #[test]
    fn decode_rejects_truncated_extended_part() {
        // A dangling variable-length integer must not panic.
        let err = decode("abc-99999999").unwrap_err();
        assert!(matches!(
            err,
            PunycodeError::Overflow | PunycodeError::InvalidCodePoint(_)
        ));
    }

    #[test]
    fn decode_rejects_surrogate_targets() {
        // Force a code point into the surrogate range via a large delta.
        let res = decode("0000000000");
        assert!(res.is_err());
    }

    #[test]
    fn decode_is_case_insensitive_in_digits() {
        // Digit values are case-insensitive; literal basic code points keep
        // their case. The inserted ü is always lowercase.
        assert_eq!(decode("BCHER-KVA").unwrap(), "BüCHER");
        assert_eq!(decode("bcher-KVA").unwrap(), "bücher");
    }

    #[test]
    fn delta_ordering_is_stable() {
        // Mixed basic and non-basic with repeated insertions.
        let s = "éxémplé-aé";
        let enc = encode(s).unwrap();
        assert_eq!(decode(&enc).unwrap(), s);
    }

    #[test]
    fn supplementary_plane_round_trip() {
        let s = "a\u{10330}b\u{1F600}"; // Gothic letter + emoticon
        let enc = encode(s).unwrap();
        assert!(enc.is_ascii());
        assert_eq!(decode(&enc).unwrap(), s);
    }
}
