//! Fixed 32×32 binary bitmap — the glyph representation of the paper.
//!
//! The paper renders every character as a 32×32 black-and-white image
//! (§3.3 Step I) and compares images by counting differing pixels. A
//! bitmap is stored as one `u32` per row, so the Δ metric is 32 XORs and
//! popcounts.
//!
//! Step II's banded pair index needs a candidate key with no false
//! negatives: [`Bitmap::row_class_signatures`] hashes θ + 1 interleaved
//! row classes (every (θ + 1)-th row), and two glyphs with Δ ≤ θ share
//! at least one of them exactly. At most 32 classes exist, one per row,
//! so the key supports θ ≤ 31.

use serde::{Deserialize, Serialize};

/// Side length of every glyph bitmap.
pub const SIZE: usize = 32;

/// A 32×32 binary image. Bit `x` of `rows[y]` is the pixel at column `x`,
/// row `y`; 1 = black (ink), 0 = white.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bitmap {
    rows: [u32; SIZE],
}

impl Default for Bitmap {
    fn default() -> Self {
        Bitmap::empty()
    }
}

impl Bitmap {
    /// The all-white bitmap.
    pub const fn empty() -> Self {
        Bitmap { rows: [0; SIZE] }
    }

    /// Builds a bitmap from raw row data.
    pub const fn from_rows(rows: [u32; SIZE]) -> Self {
        Bitmap { rows }
    }

    /// Raw row data.
    pub fn rows(&self) -> &[u32; SIZE] {
        &self.rows
    }

    /// Reads pixel `(x, y)`. Out-of-range coordinates read as white.
    pub fn get(&self, x: usize, y: usize) -> bool {
        if x >= SIZE || y >= SIZE {
            return false;
        }
        (self.rows[y] >> x) & 1 == 1
    }

    /// Sets pixel `(x, y)` to `ink`. Out-of-range coordinates are ignored,
    /// so shape-drawing code may overhang the canvas safely.
    pub fn set(&mut self, x: usize, y: usize, ink: bool) {
        if x >= SIZE || y >= SIZE {
            return;
        }
        if ink {
            self.rows[y] |= 1 << x;
        } else {
            self.rows[y] &= !(1 << x);
        }
    }

    /// Flips pixel `(x, y)`, returning the new value.
    pub fn toggle(&mut self, x: usize, y: usize) -> bool {
        if x >= SIZE || y >= SIZE {
            return false;
        }
        self.rows[y] ^= 1 << x;
        self.get(x, y)
    }

    /// Number of black pixels. Step III of the SimChar construction
    /// eliminates "sparse" glyphs with fewer than 10 black pixels.
    pub fn popcount(&self) -> u32 {
        self.rows.iter().map(|r| r.count_ones()).sum()
    }

    /// Pixel-difference metric Δ between two bitmaps (paper §3.3):
    /// the number of positions where the images disagree.
    pub fn delta(&self, other: &Bitmap) -> u32 {
        self.rows
            .iter()
            .zip(other.rows.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Δ with a cap: `Some(delta)` when `delta(self, other) <= cap`,
    /// `None` otherwise — bailing out of the row scan as soon as the
    /// running XOR popcount exceeds `cap`. In a Step II sweep almost
    /// every compared pair blows far past θ within the first few rows,
    /// so the capped form touches a fraction of the 32 rows the full
    /// metric always walks.
    pub fn delta_capped(&self, other: &Bitmap, cap: u32) -> Option<u32> {
        let mut d = 0u32;
        for (a, b) in self.rows.iter().zip(other.rows.iter()) {
            d += (a ^ b).count_ones();
            if d > cap {
                return None;
            }
        }
        Some(d)
    }

    /// Merges another bitmap into this one (ink union).
    pub fn union_with(&mut self, other: &Bitmap) {
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            *a |= b;
        }
    }

    /// Draws `other` offset by `(dx, dy)` pixels (may be negative);
    /// pixels falling outside the canvas are clipped.
    pub fn blit(&mut self, other: &Bitmap, dx: i32, dy: i32) {
        for y in 0..SIZE {
            let ty = y as i32 + dy;
            if !(0..SIZE as i32).contains(&ty) {
                continue;
            }
            let row = other.rows[y];
            let shifted = if dx >= 0 {
                (row as u64) << dx
            } else {
                (row as u64) >> (-dx)
            };
            self.rows[ty as usize] |= (shifted & 0xFFFF_FFFF) as u32;
        }
    }

    /// Nearest-neighbour upscale of an 8×8 source (stored in the top-left
    /// corner) by an integer factor, placed at `(ox, oy)`.
    pub fn upscale_8x8(src: &[u8; 8], factor: usize, ox: usize, oy: usize) -> Bitmap {
        let mut out = Bitmap::empty();
        for (sy, byte) in src.iter().enumerate() {
            for sx in 0..8 {
                if (byte >> sx) & 1 == 1 {
                    for fy in 0..factor {
                        for fx in 0..factor {
                            out.set(ox + sx * factor + fx, oy + sy * factor + fy, true);
                        }
                    }
                }
            }
        }
        out
    }

    /// Splits the rows into `out.len()` interleaved *row classes* — class
    /// `k` holds the rows `r` with `r mod n = k` — and writes a hash of
    /// each class's exact content to `out[k]`. The classes partition the
    /// 1,024 pixels, so if `delta(a, b) <= n - 1` the pigeonhole
    /// principle leaves at least one class with no differing pixel, i.e.
    /// one equal signature — the exact-candidate property the banded pair
    /// index in `sham-simchar` relies on. Every class samples the whole
    /// glyph height, so unlike a contiguous band over a blank margin it
    /// is almost never blank, and glyphs rarely share a signature by
    /// accident.
    ///
    /// # Panics
    /// Panics unless `out` has between 1 and 32 entries.
    pub fn row_class_signatures(&self, out: &mut [u64]) {
        let n = out.len();
        assert!(
            (1..=SIZE).contains(&n),
            "row classes need 1..=32 parts, got {n}"
        );
        for (k, sig) in out.iter_mut().enumerate() {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &row in self.rows[k..].iter().step_by(n) {
                h = (h.rotate_left(29) ^ u64::from(row)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            *sig = h;
        }
    }

    /// Renders the bitmap as ASCII art, `#` for ink (Figures 5–7 output).
    pub fn ascii_art(&self) -> String {
        let mut s = String::with_capacity(SIZE * (SIZE + 1));
        for y in 0..SIZE {
            for x in 0..SIZE {
                s.push(if self.get(x, y) { '#' } else { '.' });
            }
            s.push('\n');
        }
        s
    }

    /// Renders two bitmaps side by side with a gutter (for figure output).
    pub fn ascii_art_pair(a: &Bitmap, b: &Bitmap) -> String {
        let mut s = String::new();
        for y in 0..SIZE {
            for x in 0..SIZE {
                s.push(if a.get(x, y) { '#' } else { '.' });
            }
            s.push_str("   ");
            for x in 0..SIZE {
                s.push(if b.get(x, y) { '#' } else { '.' });
            }
            s.push('\n');
        }
        s
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap({} px)", self.popcount())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut b = Bitmap::empty();
        assert!(!b.get(5, 7));
        b.set(5, 7, true);
        assert!(b.get(5, 7));
        b.set(5, 7, false);
        assert!(!b.get(5, 7));
    }

    #[test]
    fn out_of_range_is_clipped() {
        let mut b = Bitmap::empty();
        b.set(32, 0, true);
        b.set(0, 32, true);
        assert_eq!(b.popcount(), 0);
        assert!(!b.get(100, 100));
    }

    #[test]
    fn popcount_counts_ink() {
        let mut b = Bitmap::empty();
        for i in 0..10 {
            b.set(i, i, true);
        }
        assert_eq!(b.popcount(), 10);
    }

    #[test]
    fn delta_is_symmetric_and_zero_on_identity() {
        let mut a = Bitmap::empty();
        let mut b = Bitmap::empty();
        a.set(1, 1, true);
        a.set(2, 2, true);
        b.set(2, 2, true);
        b.set(3, 3, true);
        assert_eq!(a.delta(&a), 0);
        assert_eq!(a.delta(&b), b.delta(&a));
        assert_eq!(a.delta(&b), 2);
    }

    #[test]
    fn delta_equals_popcount_against_empty() {
        let mut a = Bitmap::empty();
        for i in 0..17 {
            a.set(i % 32, (i * 7) % 32, true);
        }
        assert_eq!(a.delta(&Bitmap::empty()), a.popcount());
    }

    #[test]
    fn delta_capped_agrees_with_delta_under_the_cap() {
        let mut a = Bitmap::empty();
        let mut b = Bitmap::empty();
        for i in 0..12 {
            a.set(i, (i * 5) % 32, true);
            if i % 2 == 0 {
                b.set(i, (i * 5) % 32, true);
            }
        }
        let full = a.delta(&b);
        assert_eq!(a.delta_capped(&b, full), Some(full));
        assert_eq!(a.delta_capped(&b, full + 3), Some(full));
        assert_eq!(a.delta_capped(&b, full - 1), None);
        assert_eq!(a.delta_capped(&a, 0), Some(0));
    }

    #[test]
    fn delta_capped_exits_early_on_distant_pairs() {
        // All differences in row 0: the cap must trip on the first row.
        let mut a = Bitmap::empty();
        for x in 0..20 {
            a.set(x, 0, true);
        }
        assert_eq!(a.delta_capped(&Bitmap::empty(), 4), None);
        assert_eq!(a.delta_capped(&Bitmap::empty(), 20), Some(20));
    }

    #[test]
    fn toggle_flips() {
        let mut b = Bitmap::empty();
        assert!(b.toggle(4, 4));
        assert!(!b.toggle(4, 4));
    }

    #[test]
    fn blit_with_offsets_clips() {
        let mut src = Bitmap::empty();
        src.set(0, 0, true);
        src.set(31, 31, true);
        let mut dst = Bitmap::empty();
        dst.blit(&src, 1, 1);
        assert!(dst.get(1, 1));
        assert_eq!(dst.popcount(), 1); // (31,31) clipped off

        let mut dst2 = Bitmap::empty();
        dst2.blit(&src, -1, -1);
        assert!(dst2.get(30, 30));
        assert_eq!(dst2.popcount(), 1);
    }

    #[test]
    fn upscale_preserves_area_scaling() {
        let mut src = [0u8; 8];
        src[0] = 0b0000_0011; // two pixels
        let up = Bitmap::upscale_8x8(&src, 3, 0, 0);
        assert_eq!(up.popcount(), 2 * 9);
        assert!(up.get(0, 0) && up.get(2, 2) && up.get(3, 0) && up.get(5, 2));
        assert!(!up.get(6, 0));
    }

    fn signatures(b: &Bitmap, parts: usize) -> Vec<u64> {
        let mut out = vec![0; parts];
        b.row_class_signatures(&mut out);
        out
    }

    #[test]
    fn row_class_signature_pigeonhole_property() {
        // If delta <= parts-1, at least one row-class signature must match.
        let mut a = Bitmap::empty();
        for i in 0..40 {
            a.set((i * 3) % 32, (i * 11) % 32, true);
        }
        let mut b = a;
        // Flip 4 pixels.
        for i in 0..4 {
            b.toggle(i, i * 5 + 1);
        }
        assert!(a.delta(&b) <= 4);
        let sa = signatures(&a, 5);
        let sb = signatures(&b, 5);
        assert!(sa.iter().zip(&sb).any(|(x, y)| x == y));
    }

    #[test]
    fn row_classes_interleave_over_the_whole_height() {
        // Ink in row r changes exactly class r mod 5, wherever r sits: a
        // class is every fifth row, not one contiguous band.
        let blank = signatures(&Bitmap::empty(), 5);
        for r in [0usize, 4, 5, 17, 27, 31] {
            let mut b = Bitmap::empty();
            b.set(3, r, true);
            let s = signatures(&b, 5);
            for k in 0..5 {
                assert_eq!(s[k] == blank[k], k != r % 5, "row {r}, class {k}");
            }
        }
        // Rows 0 and 5 share class 0 but are different rows of it.
        let mut top = Bitmap::empty();
        top.set(3, 0, true);
        let mut lower = Bitmap::empty();
        lower.set(3, 5, true);
        assert_ne!(signatures(&top, 5)[0], signatures(&lower, 5)[0]);
    }

    #[test]
    fn ascii_art_dimensions() {
        let art = Bitmap::empty().ascii_art();
        assert_eq!(art.lines().count(), 32);
        assert!(art.lines().all(|l| l.chars().count() == 32));
    }

    #[test]
    fn union_with_is_ink_or() {
        let mut a = Bitmap::empty();
        a.set(0, 0, true);
        let mut b = Bitmap::empty();
        b.set(1, 1, true);
        a.union_with(&b);
        assert!(a.get(0, 0) && a.get(1, 1));
        assert_eq!(a.popcount(), 2);
    }
}
